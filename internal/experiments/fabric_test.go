package experiments

import (
	"sync"
	"testing"

	"smt/internal/netsim"
	"smt/internal/wire"
)

// TestWorldIsFabricSpecialCase pins the tentpole contract: the two-host
// testbed of every §5 figure is exactly the N=2 switchless fabric.
func TestWorldIsFabricSpecialCase(t *testing.T) {
	w := NewWorld(42)
	if w.Topo.Hosts != 2 || w.Topo.Switch != nil {
		t.Fatalf("NewWorld topology = %+v, want 2 switchless hosts", w.Topo)
	}
	if len(w.Hosts) != 2 || w.Client != w.Hosts[0] || w.Server != w.Hosts[1] {
		t.Fatalf("NewWorld aliases broken: %d hosts", len(w.Hosts))
	}
	if w.Client.Addr != ClientAddr || w.Server.Addr != ServerAddr {
		t.Fatalf("host addresses %d,%d; want %d,%d", w.Client.Addr, w.Server.Addr, ClientAddr, ServerAddr)
	}
	if got := w.ClientHosts(); len(got) != 1 || got[0] != w.Client {
		t.Fatalf("two-host ClientHosts() = %v", got)
	}
}

func TestFabricWorldAddressing(t *testing.T) {
	w := NewFabricWorld(7, netsim.Topology{Hosts: 5, Switch: &netsim.SwitchConfig{}})
	if len(w.Hosts) != 5 {
		t.Fatalf("built %d hosts, want 5", len(w.Hosts))
	}
	for i, h := range w.Hosts {
		if h.Addr != wire.HostAddr(i) {
			t.Errorf("host %d at addr %d, want %d", i, h.Addr, wire.HostAddr(i))
		}
	}
	cl := w.ClientHosts()
	if len(cl) != 4 || cl[0] != w.Hosts[0] || cl[1] != w.Hosts[2] {
		t.Fatalf("ClientHosts ordering wrong")
	}
	if !w.Net.Switched() {
		t.Fatal("fabric world lost its switch")
	}
}

// TestFabricLineupMatchesFigures: the default lineup builds on both
// harnesses — N-host fabric and two-host figure adapter — as the same
// six systems in the same order.
func TestFabricLineupMatchesFigures(t *testing.T) {
	for i, spec := range DefaultLineup() {
		fab := must(BuildFabric(spec))
		two := must(BuildSystem(spec))
		if fab.Name != spec.Name || two.Name != spec.Name {
			t.Errorf("lineup[%d] %q: fabric %q vs figures %q", i, spec.Name, fab.Name, two.Name)
		}
	}
}

// TestGoldenTwoHostRTT pins exact two-host fig6 values measured before
// the N-host refactor. Any change to these numbers means the
// generalized World is no longer the faithful N=2 special case (or the
// cost model was deliberately recalibrated — update the goldens then).
func TestGoldenTwoHostRTT(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep; run without -short")
	}
	t.Parallel()
	golden := []struct {
		system string
		index  int // position in DefaultLineup()
		size   int
		mean   float64 // mean_rtt_ns from the pre-refactor artifact
	}{
		{"TCP", 0, 1024, 21598},
		{"Homa", 3, 1024, 17712},
		{"SMT-sw", 4, 1024, 21112},
		{"SMT-hw", 5, 1024, 20504},
	}
	for _, g := range golden {
		r := must(MeasureRTT(must(BuildSystem(DefaultLineup()[g.index])), g.size, 0, false, 42))
		if r.System != g.system {
			t.Fatalf("lineup moved: index %d is %q, want %q", g.index, r.System, g.system)
		}
		if float64(r.MeanRTT) != g.mean {
			t.Errorf("%s@%dB mean RTT %v ns, golden %v ns", g.system, g.size, float64(r.MeanRTT), g.mean)
		}
	}
}

// incastByName measures the whole lineup at one point, indexed by
// system name.
func incastByName(t *testing.T, clients, size int, seed int64) map[string]IncastRow {
	t.Helper()
	var mu sync.Mutex
	rows := map[string]IncastRow{}
	lineup := DefaultLineup()
	ForEach(len(lineup), 0, func(i int) {
		r := must(MeasureIncast(must(BuildFabric(lineup[i])), clients, size, seed))
		mu.Lock()
		rows[r.System] = r
		mu.Unlock()
	})
	return rows
}

// TestIncastSeparation is the acceptance point: at 3 clients fanning
// 64 KB requests into one switch port, the TCP-family systems collapse
// (goodput) and plain TCP's tail goes RTO-bound, while the
// message-transport systems (Homa, SMT) recover via receiver-driven
// RESENDs and keep both goodput and tail in a different regime.
func TestIncastSeparation(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep; run without -short")
	}
	t.Parallel()
	rows := incastByName(t, 3, 65536, 9003)

	tcpFam := []string{"TCP", "kTLS-sw", "kTLS-hw"}
	msgFam := []string{"Homa", "SMT-sw", "SMT-hw"}

	// Congestion actually happened: the burst overflowed the shared
	// buffer for every system that can fill the port.
	if rows["TCP"].SwitchDrops == 0 {
		t.Error("TCP incast saw no switch drops; the point is not congested")
	}

	// Goodput collapse separation: every message transport beats every
	// TCP-family system by at least 2x.
	for _, m := range msgFam {
		for _, s := range tcpFam {
			if rows[m].GoodputGbps < 2*rows[s].GoodputGbps {
				t.Errorf("goodput separation missing: %s=%.1f Gbps vs %s=%.1f Gbps",
					m, rows[m].GoodputGbps, s, rows[s].GoodputGbps)
			}
		}
	}

	// Tail separation: plain TCP's p99 is RTO-bound (milliseconds),
	// at least 2x every message transport's p99.
	if rows["TCP"].P99LatUs < 1000 {
		t.Errorf("TCP p99 = %.0f µs; expected an RTO-bound (ms-scale) tail", rows["TCP"].P99LatUs)
	}
	for _, m := range msgFam {
		if rows["TCP"].P99LatUs < 2*rows[m].P99LatUs {
			t.Errorf("tail separation missing: TCP p99=%.0fµs vs %s p99=%.0fµs",
				rows["TCP"].P99LatUs, m, rows[m].P99LatUs)
		}
	}
}

// TestMulticlientScaling: adding client hosts scales aggregate
// throughput until the server saturates, and the message transports
// sustain a higher aggregate than the TCP family at full fan-in.
func TestMulticlientScaling(t *testing.T) {
	if testing.Short() {
		t.Skip("simulation sweep; run without -short")
	}
	t.Parallel()
	type point struct{ one, eight MulticlientRow }
	var mu sync.Mutex
	rows := map[string]point{}
	lineup := DefaultLineup()
	ForEach(len(lineup)*2, 0, func(i int) {
		sys := must(BuildFabric(lineup[i/2]))
		clients, seed := 1, int64(8001)
		if i%2 == 1 {
			clients, seed = 8, 8008
		}
		r := must(MeasureMulticlient(sys, clients, seed))
		mu.Lock()
		p := rows[sys.Name]
		if clients == 1 {
			p.one = r
		} else {
			p.eight = r
		}
		rows[sys.Name] = p
		mu.Unlock()
	})
	for name, p := range rows {
		if p.eight.RPCsPerSec <= p.one.RPCsPerSec {
			t.Errorf("%s: aggregate did not scale: 1 client %.0f RPC/s, 8 clients %.0f RPC/s",
				name, p.one.RPCsPerSec, p.eight.RPCsPerSec)
		}
		if p.eight.ServerCPU <= p.one.ServerCPU {
			t.Errorf("%s: server CPU did not rise with fan-in (%.2f -> %.2f)",
				name, p.one.ServerCPU, p.eight.ServerCPU)
		}
		if p.eight.ServerCPU > 1.001 {
			t.Errorf("%s: server CPU fraction %.3f > 1", name, p.eight.ServerCPU)
		}
	}
	for _, msg := range []string{"Homa", "SMT-sw", "SMT-hw"} {
		for _, stream := range []string{"kTLS-sw", "kTLS-hw"} {
			if rows[msg].eight.RPCsPerSec <= rows[stream].eight.RPCsPerSec {
				t.Errorf("at 8 clients %s (%.0f RPC/s) should out-scale %s (%.0f RPC/s)",
					msg, rows[msg].eight.RPCsPerSec, stream, rows[stream].eight.RPCsPerSec)
			}
		}
	}
}
