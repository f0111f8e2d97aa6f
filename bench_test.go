package smt_test

// One benchmark per table/figure of the paper's evaluation. Each runs a
// subset of the experiment's registered points (the registry is the one
// definition of every sweep's grid and seeds) serially in virtual time
// and logs the rows via b.Log; `smtexp -run <name>` runs the full sweep.
// Absolute wall time per iteration reflects simulation cost, not
// protocol speed — the virtual-time results inside the rows are the
// reproduction.

import (
	"fmt"
	"strings"
	"testing"

	"smt/internal/experiments"
)

// anySegment returns a point filter keeping keys ("sys=TCP/size=64")
// that carry at least one of the given "name=value" segments.
func anySegment(segs ...string) func(key string) bool {
	return func(key string) bool {
		for _, part := range strings.Split(key, "/") {
			for _, s := range segs {
				if part == s {
					return true
				}
			}
		}
		return false
	}
}

// all keeps every point of an experiment.
func all(string) bool { return true }

// benchRegistry runs the points of the named experiment that keep
// selects, on one worker, b.N times. wantPoints > 0 pins the subset's
// size. The first iteration logs every result; any point error fails
// the benchmark.
func benchRegistry(b *testing.B, name string, keep func(key string) bool, wantPoints int) {
	e, ok := experiments.Lookup(name)
	if !ok {
		b.Fatalf("%s not registered", name)
	}
	var pts []experiments.Point
	for _, p := range e.Points(nil) {
		if keep(p.Key) {
			pts = append(pts, p)
		}
	}
	if len(pts) == 0 || (wantPoints > 0 && len(pts) != wantPoints) {
		b.Fatalf("%s: filter kept %d points (want %d; 0 means any nonzero count)", name, len(pts), wantPoints)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.RunPoints(e, pts, experiments.RunOptions{Workers: 1}) {
			if r.Err != "" {
				b.Fatalf("%s %s: %s", name, r.Key, r.Err)
			}
			if i == 0 {
				b.Logf("%-40s values=%v labels=%v", r.Key, r.Values, r.Labels)
			}
		}
	}
}

// BenchmarkTable1Properties regenerates Table 1 (design-space matrix).
func BenchmarkTable1Properties(b *testing.B) { benchRegistry(b, "table1", all, 0) }

// BenchmarkTable2Handshake regenerates Table 2 (handshake breakdown)
// with real crypto on this machine next to the paper's numbers.
func BenchmarkTable2Handshake(b *testing.B) { benchRegistry(b, "table2", all, 0) }

// BenchmarkFig2ResyncSemantics regenerates the Figure 2 scenarios.
func BenchmarkFig2ResyncSemantics(b *testing.B) { benchRegistry(b, "fig2", all, 0) }

// BenchmarkFig5BitAllocation regenerates the Figure 5 trade-off matrix.
func BenchmarkFig5BitAllocation(b *testing.B) { benchRegistry(b, "fig5", all, 0) }

// BenchmarkFig6UnloadedRTT regenerates Figure 6 on four sizes × the
// six-stack lineup (seed 42).
func BenchmarkFig6UnloadedRTT(b *testing.B) {
	benchRegistry(b, "fig6", anySegment("size=64", "size=1024", "size=8192", "size=65536"), 4*6)
}

// BenchmarkFig7Throughput regenerates Figure 7 at concurrency 150 for
// every size.
func BenchmarkFig7Throughput(b *testing.B) { benchRegistry(b, "fig7", anySegment("conc=150"), 0) }

// BenchmarkFig8Redis regenerates Figure 8 on YCSB-B for every value
// size.
func BenchmarkFig8Redis(b *testing.B) { benchRegistry(b, "fig8", anySegment("wl=YCSB-B"), 0) }

// BenchmarkFig9NVMeoF regenerates Figure 9 at iodepth 1 and 8.
func BenchmarkFig9NVMeoF(b *testing.B) {
	benchRegistry(b, "fig9", anySegment("iodepth=1", "iodepth=8"), 0)
}

// BenchmarkFig10TCPLS regenerates Figure 10.
func BenchmarkFig10TCPLS(b *testing.B) { benchRegistry(b, "fig10", all, 0) }

// BenchmarkFig11TSO regenerates Figure 11.
func BenchmarkFig11TSO(b *testing.B) { benchRegistry(b, "fig11", all, 0) }

// BenchmarkFig12KeyExchange regenerates Figure 12 at one RPC size.
func BenchmarkFig12KeyExchange(b *testing.B) { benchRegistry(b, "fig12", anySegment("size=1024"), 0) }

// BenchmarkIncast regenerates the fabric incast experiment at the
// 3-client 64 KB acceptance point.
func BenchmarkIncast(b *testing.B) {
	benchRegistry(b, "incast", func(key string) bool {
		return anySegment("clients=3")(key) && anySegment("size=65536")(key)
	}, 0)
}

// BenchmarkMulticlient regenerates the fabric scaling experiment at
// 4 client hosts.
func BenchmarkMulticlient(b *testing.B) { benchRegistry(b, "multiclient", anySegment("clients=4"), 0) }

// BenchmarkLoadSweep regenerates the open-loop load sweep at the
// highest swept load (60%) across the six-stack lineup — the
// slowdown-separation acceptance point.
func BenchmarkLoadSweep(b *testing.B) {
	top := experiments.LoadSweepLoads[len(experiments.LoadSweepLoads)-1]
	benchRegistry(b, "loadsweep", anySegment(fmt.Sprintf("load=%d", experiments.LoadSweepPercent(top))), 6)
}

// BenchmarkCPUUsage regenerates the §5.2 fixed-rate CPU comparison.
func BenchmarkCPUUsage(b *testing.B) { benchRegistry(b, "cpuusage", all, 0) }
