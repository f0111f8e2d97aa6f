package experiments

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// This file holds the registry-wide invariant battery. Every
// experiment's spread points run twice in all, with the same seeds:
// once audited across a worker pool, once unaudited serially
// (batteryOf). Four tests read that one pass, each for its own
// property:
//
//   - TestDeterministicArtifacts: the two artifacts are byte-identical,
//     for every experiment. That one comparison pins tap purity (the
//     auditor draws no RNG and mutates nothing), worker-count
//     independence and run-to-run determinism together. Every point
//     builds its own World with its own engine and RNG stream, so
//     neither scheduling, worker count nor the audit tap may leak into
//     results.
//   - TestAuditorGreenAcrossRegistry (audit_test.go): every audited
//     world settled clean, and each point audited exactly the worlds it
//     builds.
//   - TestPacketPoolLeakFreedom: no settled world left pooled packets
//     or message buffers outstanding.
//   - TestAuditArtifactIdentity (audit_test.go): the headline
//     experiments' artifacts are unchanged by the tap.
//
// The fabric experiments (incast, multiclient), the open-loop load
// sweep (loadsweep, whose Poisson arrival process draws from the
// per-world seeded RNG), the chaos battery and the churn sweep are
// covered by the same loop as the §5 figures; TestDeterminismCoverage
// pins that they stay registered.

// batteryPass is one experiment's share of the battery: its spread
// points, run audited on 4 workers and unaudited serially.
type batteryPass struct {
	once    sync.Once
	pts     []Point
	audited []Result
	plain   []Result
}

// batteryPasses holds each experiment's pass (experiment name →
// *batteryPass), so the battery tests share it instead of re-running
// the points; whichever test asks first runs it.
var batteryPasses sync.Map

// batteryOf returns e's battery pass, running it on first use: ≤6
// spread points (2 under -short), audited on 4 workers, then unaudited
// serially.
func batteryOf(e *Experiment) *batteryPass {
	v, _ := batteryPasses.LoadOrStore(e.Name(), &batteryPass{})
	p := v.(*batteryPass)
	p.once.Do(func() {
		maxPts := 6
		if testing.Short() {
			maxPts = 2
		}
		p.pts = spreadPoints(e.Points(nil), maxPts)
		p.audited = RunPoints(e, p.pts, RunOptions{Workers: 4, Audit: true})
		p.plain = RunPoints(e, p.pts, RunOptions{Workers: 1})
	})
	return p
}

// forEachBatteryExperiment runs check as a parallel subtest per
// registered experiment on its battery pass. table2 is skipped: it
// measures wall-clock crypto cost, machine-dependent by design, with no
// simulated wire.
func forEachBatteryExperiment(t *testing.T, check func(t *testing.T, e *Experiment, p *batteryPass)) {
	for _, e := range All() {
		e := e
		t.Run(e.Name(), func(t *testing.T) {
			if e.Name() == "table2" {
				t.Skip("table2 measures wall-clock crypto cost; machine-dependent by design, no simulated wire")
			}
			t.Parallel()
			check(t, e, batteryOf(e))
		})
	}
}

// artifactJSON serializes one pass's results the way a JSON artifact
// would, with wall-clock timing stripped (the only field allowed to
// differ between runs). Any failed point fails the test.
func artifactJSON(t *testing.T, e *Experiment, res []Result) []byte {
	t.Helper()
	res = append([]Result(nil), res...)
	for i := range res {
		if res[i].Err != "" {
			t.Fatalf("%s point %q failed: %s", e.Name(), res[i].Key, res[i].Err)
		}
		res[i].ElapsedMs = 0
	}
	b, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	return b
}

// spreadPoints picks up to n points spanning the decomposition: always
// the first and last, evenly spaced in between — so boundary cells and
// interior cells are both exercised without running the whole sweep.
func spreadPoints(pts []Point, n int) []Point {
	if len(pts) <= n {
		return pts
	}
	if n <= 1 {
		return pts[:1]
	}
	out := make([]Point, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, pts[i*(len(pts)-1)/(n-1)])
	}
	return out
}

// auditedWorlds is how many worlds one point of an experiment builds,
// and so how many an audited run must settle per point: none for the
// analytic experiments, the measured world plus its idle twin (the
// unloaded-baseline world) for the load sweeps, one otherwise.
func auditedWorlds(name string) int {
	switch name {
	case "fig2", "fig5", "table1":
		return 0
	case "loadsweep", "bigworld":
		return 2
	}
	return 1
}

// TestDeterministicArtifacts requires every experiment's audited
// 4-worker artifact to be byte-identical to its unaudited serial one.
func TestDeterministicArtifacts(t *testing.T) {
	forEachBatteryExperiment(t, func(t *testing.T, e *Experiment, p *batteryPass) {
		a, s := artifactJSON(t, e, p.audited), artifactJSON(t, e, p.plain)
		if !bytes.Equal(a, s) {
			t.Errorf("audited 4-worker artifact differs from the unaudited serial one:\naudited: %s\nserial:  %s", a, s)
		}
	})
}

// TestPacketPoolLeakFreedom asserts, for every registered experiment,
// that a drained world returns every pooled packet and every message
// buffer: the allocation-free data path recycles packets through
// wire.PacketPool and message bytes through wire.BufPool, so any code
// path that loses a reference (a dropped retransmit, an abandoned
// reassembly, a dead connection's queue, a segment the NIC never
// released) leaves a nonzero outstanding count. settle checks both
// pools of every world the battery audited (and of the chaos battery's
// always-audited world in the unaudited pass) and reports a leak, or a
// world that never quiesced, in the point's Err.
func TestPacketPoolLeakFreedom(t *testing.T) {
	forEachBatteryExperiment(t, func(t *testing.T, e *Experiment, p *batteryPass) {
		for _, res := range append(append([]Result(nil), p.audited...), p.plain...) {
			if strings.Contains(res.Err, "outstanding") || strings.Contains(res.Err, "did not quiesce") {
				t.Errorf("%s: %s", res.Key, res.Err)
			}
		}
	})
}

// TestDeterminismCoverage pins that the experiments whose determinism
// is least obvious — the fabric sweeps, the randomized open-loop load
// sweep, the fault-injecting chaos battery, and the live-handshake
// churn sweep (real ECDH key generation seeded from the engine RNG) —
// are in the registry TestDeterministicArtifacts walks.
func TestDeterminismCoverage(t *testing.T) {
	for _, name := range []string{"incast", "multiclient", "loadsweep", "chaos", "churn"} {
		if _, ok := Lookup(name); !ok {
			t.Errorf("%s not registered; determinism battery no longer covers it", name)
		}
	}
}

// TestSpreadPoints pins the helper's contract so the determinism test
// keeps covering decomposition boundaries.
func TestSpreadPoints(t *testing.T) {
	pts := make([]Point, 10)
	for i := range pts {
		pts[i] = Point{Index: i}
	}
	got := spreadPoints(pts, 4)
	want := []int{0, 3, 6, 9}
	if len(got) != len(want) {
		t.Fatalf("got %d points, want %d", len(got), len(want))
	}
	for i, w := range want {
		if got[i].Index != w {
			t.Errorf("spread[%d] = %d, want %d", i, got[i].Index, w)
		}
	}
	if n := len(spreadPoints(pts[:3], 4)); n != 3 {
		t.Errorf("small list should pass through, got %d", n)
	}
	if got := spreadPoints(pts, 1); len(got) != 1 || got[0].Index != 0 {
		t.Errorf("n=1 should return the first point, got %v", got)
	}
}
