package main

import (
	"fmt"
	"sort"
	"strings"
)

// A layer is one module of the repository. Every package under
// smt/internal belongs to exactly one layer, named after the package;
// layers_test.go fails when a package is added without an entry here,
// so new code cannot fall silently into an unnamed bucket.
var layerPackages = map[string]string{
	"smt/internal/audit":       "audit",
	"smt/internal/core":        "core",
	"smt/internal/cost":        "cost",
	"smt/internal/cpusim":      "cpusim",
	"smt/internal/dcdns":       "dcdns",
	"smt/internal/experiments": "experiments",
	"smt/internal/handshake":   "handshake",
	"smt/internal/hkdfx":       "hkdfx",
	"smt/internal/homa":        "homa",
	"smt/internal/ktls":        "ktls",
	"smt/internal/kvstore":     "kvstore",
	"smt/internal/lint":        "lint",
	"smt/internal/netsim":      "netsim",
	"smt/internal/nicsim":      "nicsim",
	"smt/internal/nvmeof":      "nvmeof",
	"smt/internal/rpc":         "rpc",
	"smt/internal/sim":         "sim",
	"smt/internal/stats":       "stats",
	"smt/internal/tcpls":       "tcpls",
	"smt/internal/tcpsim":      "tcpsim",
	"smt/internal/tlsrec":      "tlsrec",
	"smt/internal/wire":        "wire",
	"smt/internal/workload":    "workload",
	"smt/internal/ycsb":        "ycsb",
}

// benchLayer is the benchmark's own code (package main): row checks,
// golden comparison and profile decoding.
const benchLayer = "bench"

// layerNames lists every layer in report order: the module layers
// sorted by name, then the benchmark itself.
func layerNames() []string {
	names := make([]string, 0, len(layerPackages)+1)
	for _, l := range layerPackages {
		names = append(names, l)
	}
	sort.Strings(names)
	return append(names, benchLayer)
}

// funcPackage returns the import path of a symbol name as the Go
// runtime reports it, e.g. "smt/internal/sim.(*Engine).Run" →
// "smt/internal/sim" and "main.runPass" → "main".
func funcPackage(fn string) string {
	if i := strings.IndexByte(fn, '['); i >= 0 {
		fn = fn[:i] // generic instantiations may contain '/' and '.'
	}
	slash := strings.LastIndexByte(fn, '/')
	if dot := strings.IndexByte(fn[slash+1:], '.'); dot >= 0 {
		return fn[:slash+1+dot]
	}
	return fn
}

// layerOf maps a symbol to its layer. repo is false for symbols outside
// this repository (the Go runtime and standard library). A symbol from
// a repository package with no layer is an error.
func layerOf(fn string) (layer string, repo bool, err error) {
	pkg := funcPackage(fn)
	if pkg == "main" {
		return benchLayer, true, nil
	}
	if pkg != "smt" && !strings.HasPrefix(pkg, "smt/") {
		return "", false, nil
	}
	l, ok := layerPackages[pkg]
	if !ok {
		return "", true, fmt.Errorf("package %s (from %s) has no layer", pkg, fn)
	}
	return l, true, nil
}
