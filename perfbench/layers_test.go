package main

import (
	"io/fs"
	"path"
	"path/filepath"
	"strings"
	"testing"
)

// TestEveryPackageHasOneLayer walks the repository's internal tree: every
// package in it must map to exactly one layer, and every entry of the
// layer table must still be a package.
func TestEveryPackageHasOneLayer(t *testing.T) {
	pkgs := map[string]bool{}
	err := filepath.WalkDir("../internal", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && d.Name() == "testdata" {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(p, ".go") || strings.HasSuffix(p, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel("..", filepath.Dir(p))
		if err != nil {
			return err
		}
		pkgs[path.Join("smt", filepath.ToSlash(rel))] = true
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) == 0 {
		t.Fatal("found no packages under ../internal")
	}
	for pkg := range pkgs {
		if _, ok := layerPackages[pkg]; !ok {
			t.Errorf("package %s has no layer: add it to layerPackages", pkg)
		}
	}
	owner := map[string]string{}
	for pkg, layer := range layerPackages {
		if !pkgs[pkg] {
			t.Errorf("layer table names %s, which is not a package", pkg)
		}
		if prev, dup := owner[layer]; dup {
			t.Errorf("layer %s holds both %s and %s", layer, prev, pkg)
		}
		owner[layer] = pkg
		if layer == benchLayer || strings.HasPrefix(layer, "runtime") {
			t.Errorf("layer %s of %s collides with a reserved name", layer, pkg)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for _, tc := range []struct {
		fn    string
		layer string
		repo  bool
	}{
		{"smt/internal/sim.(*Engine).Run", "sim", true},
		{"smt/internal/homa.(*Socket).Send.func1", "homa", true},
		{"smt/internal/stats.Quantile[go.shape.int64]", "stats", true},
		{"smt/internal/wire.Get[go.shape.*smt/internal/homa.seg]", "wire", true},
		{"main.(*bench).runPoint", benchLayer, true},
		{"runtime.memmove", "", false},
		{"crypto/internal/fips140/aes/gcm.gcmAesEnc", "", false},
		{"encoding/json.Marshal", "", false},
	} {
		layer, repo, err := layerOf(tc.fn)
		if err != nil || layer != tc.layer || repo != tc.repo {
			t.Errorf("layerOf(%q) = %q, %v, %v; want %q, %v", tc.fn, layer, repo, err, tc.layer, tc.repo)
		}
	}
	for _, fn := range []string{"smt/internal/newpkg.F", "smt.Dial", "smt/cmd/smtexp.main"} {
		if _, _, err := layerOf(fn); err == nil {
			t.Errorf("layerOf(%q): want an error for a repository package with no layer", fn)
		}
	}
}
