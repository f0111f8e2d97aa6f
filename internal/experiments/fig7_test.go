package experiments

import (
	"testing"
)

func tputOf(rows []TputRow, system string, size, conc int) float64 {
	for _, r := range rows {
		if r.System == system && r.Size == size && r.Concurrency == conc {
			return r.RPCsPerSec
		}
	}
	panic("missing row " + system)
}

// testFig7Shape verifies the §5.2 relationships at one representative
// concurrency (the full sweep runs in the benchmark):
//   - 64 B: SMT beats kTLS by 16–40 %,
//   - 1 KB: by 17–41 % (hw) / 16–39 % (sw),
//   - 8 KB: SMT *loses* to kTLS by 3–15 %,
//   - HW gain largest at 1 KB (5–11 %),
//   - Homa/SMT softirq-bound near 0.7 M RPC/s at 8 KB.
//
// Runs under TestExperiments with the cells fanned out in parallel.
func testFig7Shape(t *testing.T) {
	const conc = 150
	lineup := DefaultLineup()
	nsys := len(lineup)
	rows := make([]TputRow, len(Fig7Sizes)*nsys)
	ForEach(len(rows), 0, func(i int) {
		size := Fig7Sizes[i/nsys]
		rows[i] = must(MeasureThroughput(must(BuildSystem(lineup[i%nsys])), size, conc, 0, 0, 9))
	})
	for _, r := range rows {
		t.Logf("%-8s %6dB c=%d: %.3f M RPC/s (lat %.1fµs, cpu cli %.2f srv %.2f)",
			r.System, r.Size, r.Concurrency, r.RPCsPerSec/1e6, r.MeanLatUs, r.ClientCPU, r.ServerCPU)
	}

	gain := func(size int, hw bool) float64 {
		if hw {
			return ratio(tputOf(rows, "SMT-hw", size, conc), tputOf(rows, "kTLS-hw", size, conc))
		}
		return ratio(tputOf(rows, "SMT-sw", size, conc), tputOf(rows, "kTLS-sw", size, conc))
	}
	// gain() computes (smt-ktls)/smt; the paper quotes smt/ktls-1, use that:
	adv := func(size int, smtName, ktlsName string) float64 {
		return tputOf(rows, smtName, size, conc)/tputOf(rows, ktlsName, size, conc) - 1
	}
	_ = gain

	if a := adv(64, "SMT-sw", "kTLS-sw"); a < 0.13 || a > 0.45 {
		t.Errorf("64B SMT-sw advantage %.1f%% outside 16–40%%", a*100)
	}
	if a := adv(64, "SMT-hw", "kTLS-hw"); a < 0.13 || a > 0.45 {
		t.Errorf("64B SMT-hw advantage %.1f%% outside 16–40%%", a*100)
	}
	if a := adv(1024, "SMT-sw", "kTLS-sw"); a < 0.13 || a > 0.45 {
		t.Errorf("1KB SMT-sw advantage %.1f%% outside 16–39%%", a*100)
	}
	if a := adv(1024, "SMT-hw", "kTLS-hw"); a < 0.13 || a > 0.45 {
		t.Errorf("1KB SMT-hw advantage %.1f%% outside 17–41%%", a*100)
	}
	// 8 KB: SMT behind kTLS by 3–15 %.
	if a := adv(8192, "SMT-sw", "kTLS-sw"); a > -0.01 || a < -0.20 {
		t.Errorf("8KB SMT-sw should trail kTLS-sw by 3–13%%, got %.1f%%", a*100)
	}
	if a := adv(8192, "SMT-hw", "kTLS-hw"); a > -0.01 || a < -0.22 {
		t.Errorf("8KB SMT-hw should trail kTLS-hw by 5–15%%, got %.1f%%", a*100)
	}
	// HW benefit of SMT largest at 1 KB (5–11 %).
	hw1k := tputOf(rows, "SMT-hw", 1024, conc)/tputOf(rows, "SMT-sw", 1024, conc) - 1
	hw64 := tputOf(rows, "SMT-hw", 64, conc)/tputOf(rows, "SMT-sw", 64, conc) - 1
	if hw1k < 0.03 || hw1k > 0.15 {
		t.Errorf("1KB SMT hw benefit %.1f%% outside 5–11%%", hw1k*100)
	}
	if hw64 > hw1k {
		t.Errorf("hw benefit at 64B (%.1f%%) should not exceed 1KB (%.1f%%)", hw64*100, hw1k*100)
	}
	// Homa/SMT 8 KB softirq bound in the ~0.5–0.9 M RPC/s region.
	if tp := tputOf(rows, "SMT-sw", 8192, conc); tp < 0.35e6 || tp > 1.1e6 {
		t.Errorf("8KB SMT-sw throughput %.2fM outside plausible softirq-bound band", tp/1e6)
	}
}
