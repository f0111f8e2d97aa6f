package main

import (
	"encoding/json"
	"math"
	"strings"
	"testing"

	"smt/internal/experiments"
)

// goldenRow returns the reference row of a workload's warm-up point,
// decoded into its typed row.
func goldenRow[R any](t *testing.T, g *golden, wl workload) (string, int64, R) {
	t.Helper()
	pts, err := wl.points()
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range pts {
		if p.key != wl.warm {
			continue
		}
		seed := pointSeed(refSeed, 0, p.slot)
		var row R
		if err := json.Unmarshal(g.Rows[wl.name][goldenKey(p.key, seed)], &row); err != nil {
			t.Fatalf("%s: golden row: %v", wl.name, err)
		}
		return p.key, seed, row
	}
	t.Fatalf("%s: no warm-up point", wl.name)
	panic("unreachable")
}

// TestCheckRejectsPerturbedRows proves the output check has teeth: the
// captured reference rows pass, and each row moved by one ulp in one
// float, or broken in one invariant, fails.
func TestCheckRejectsPerturbedRows(t *testing.T) {
	g, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	up := func(x float64) float64 { return math.Nextafter(x, math.Inf(1)) }
	for _, tc := range []struct {
		workload  string
		perturbed func(t *testing.T, wl workload) (key string, seed int64, ok, bad any)
		invariant func(wl workload) (bad any) // breaks an invariant; nil when none applies
	}{
		{
			workload: "rpc-bulk",
			perturbed: func(t *testing.T, wl workload) (string, int64, any, any) {
				k, s, r := goldenRow[experiments.TputRow](t, g, wl)
				bad := r
				bad.RPCsPerSec = up(r.RPCsPerSec)
				return k, s, r, bad
			},
			invariant: func(wl workload) any {
				return experiments.TputRow{Size: 65536, Concurrency: bulkStreams, RPCsPerSec: 1e6, MeanLatUs: 10}
			},
		},
		{
			workload: "fabric-openloop",
			perturbed: func(t *testing.T, wl workload) (string, int64, any, any) {
				k, s, r := goldenRow[experiments.LoadSweepRow](t, g, wl)
				bad := r
				bad.P99Slowdown = up(r.P99Slowdown)
				return k, s, r, bad
			},
			invariant: func(wl workload) any {
				return experiments.LoadSweepRow{Issued: 10, N: 10, OfferedGbps: 10, GoodputGbps: 10, P50Slowdown: 0.9, P99Slowdown: 2, MeanLatUs: 1, P99LatUs: 2}
			},
		},
		{
			workload: "conn-churn",
			perturbed: func(t *testing.T, wl workload) (string, int64, any, any) {
				k, s, r := goldenRow[experiments.ChurnRow](t, g, wl)
				bad := r
				bad.TicketHitRate = up(r.TicketHitRate)
				return k, s, r, bad
			},
			invariant: func(wl workload) any {
				return experiments.ChurnRow{Policy: "1rtt", Dials: 10, Established: 9, Completed: 10, FirstRespP99Us: 1}
			},
		},
	} {
		wl, err := lookupWorkload(tc.workload)
		if err != nil {
			t.Fatal(err)
		}
		key, seed, ok, bad := tc.perturbed(t, wl)
		if err := newRowChecker(wl, g, refSeed).check(key, seed, ok); err != nil {
			t.Errorf("%s: reference row rejected: %v", tc.workload, err)
		}
		err = newRowChecker(wl, g, refSeed).check(key, seed, bad)
		if err == nil || !strings.Contains(err.Error(), "differs from golden") {
			t.Errorf("%s: row one ulp off the reference: got %v, want a golden mismatch", tc.workload, err)
		}
		// Off the reference seed there is no golden row; a repeat of the
		// same point must still reproduce the first row exactly.
		c := newRowChecker(wl, g, 99)
		if err := c.check(key, 99, ok); err != nil {
			t.Errorf("%s: first run off the reference seed: %v", tc.workload, err)
		}
		if err := c.check(key, 99, bad); err == nil || !strings.Contains(err.Error(), "repeated point") {
			t.Errorf("%s: repeated point with a changed row: got %v", tc.workload, err)
		}
		if err := newRowChecker(wl, g, 99).check(key, 99, tc.invariant(wl)); err == nil || !strings.Contains(err.Error(), "invariant") {
			t.Errorf("%s: row breaking an invariant: got %v", tc.workload, err)
		}
	}
}

// TestStrictSeedNeedsGolden: on the reference seed a point with no
// captured row fails rather than passing unchecked.
func TestStrictSeedNeedsGolden(t *testing.T) {
	g, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	wl, _ := lookupWorkload("conn-churn")
	_, _, row := goldenRow[experiments.ChurnRow](t, g, wl)
	if err := newRowChecker(wl, g, refSeed).check("sys=nowhere", refSeed, row); err == nil {
		t.Error("a reference-seed row with no golden entry passed")
	}
}

// TestGoldenCoversReferenceRun: golden.json holds a row for every point
// of every workload on each of the reference seed's sub-seeds.
func TestGoldenCoversReferenceRun(t *testing.T) {
	g, err := loadGolden(goldenJSON)
	if err != nil {
		t.Fatal(err)
	}
	for _, wl := range workloads {
		pts, err := wl.points()
		if err != nil {
			t.Fatal(err)
		}
		for sub := 0; sub < subSeeds; sub++ {
			for _, p := range pts {
				if _, ok := g.Rows[wl.name][goldenKey(p.key, pointSeed(refSeed, sub, p.slot))]; !ok {
					t.Errorf("%s: no golden row for %s on sub-seed %d", wl.name, p.key, sub)
				}
			}
		}
		if n := len(g.Rows[wl.name]); n != subSeeds*len(pts) {
			t.Errorf("%s: golden holds %d rows, want %d", wl.name, n, subSeeds*len(pts))
		}
	}
}
