package experiments

import (
	"smt/internal/cpusim"
	"smt/internal/rpc"
	"smt/internal/sim"
)

// This file is the fault/chaos battery: a Chaos config drives netsim's
// fault knobs (loss, duplication, reordering, payload corruption) with
// an optional mid-flight burst, MeasureChaos runs one stack under it
// with the wire auditor attached and the application-level delivery
// check armed, then settles the world, and the registered "chaos"
// experiment sweeps fault intensity × every registered stack. The
// claim under test is that every encrypted stack fails closed:
// tampered records are rejected cryptographically (never surfaced to
// the application as wrong plaintext), NIC resync repairs the
// hw-offload counter, and goodput degrades without violating any audit
// invariant. The plain stacks are
// the control: with nothing to authenticate the payload, tampered bytes
// reach the application — the exposure the paper's encryption removes.

// Chaos configures a fault storm on a world's network.
type Chaos struct {
	// Loss / Dup / Reorder / Corrupt are the per-packet probabilities
	// for the matching netsim knobs.
	Loss, Dup, Reorder, Corrupt float64
	// ReorderDelay is how far a reordered packet is delayed
	// (0 = 20 µs, roughly two unloaded RTTs).
	ReorderDelay sim.Time
	// BurstAt/BurstLen schedule a mid-flight burst during which every
	// probability is multiplied by BurstFactor (capped at 1). BurstLen 0
	// disables the burst.
	BurstAt, BurstLen sim.Time
	BurstFactor       float64
}

// apply arms the chaos config on w: fault knobs now, burst toggles as
// scheduled engine events (fixed virtual times, no RNG draws), and the
// auditor (when attached) switched to fault-injection tolerance.
func (c Chaos) apply(w *World) {
	n := w.Net
	rd := c.ReorderDelay
	if rd == 0 {
		rd = 20 * sim.Microsecond
	}
	set := func(scale float64) {
		n.LossProb = capProb(c.Loss * scale)
		n.DupProb = capProb(c.Dup * scale)
		n.ReorderProb = capProb(c.Reorder * scale)
		n.CorruptProb = capProb(c.Corrupt * scale)
	}
	set(1)
	n.ReorderDelay = rd
	if w.Audit != nil {
		w.Audit.SetFaultInjection(true)
	}
	if c.BurstLen > 0 && c.BurstFactor > 1 {
		w.Eng.At(c.BurstAt, func() { set(c.BurstFactor) })
		w.Eng.At(c.BurstAt+c.BurstLen, func() { set(1) })
	}
}

// capProb clamps a scaled probability to 1.
func capProb(p float64) float64 {
	if p > 1 {
		return 1
	}
	return p
}

// Chaos run shape: RPCs big enough that every message spans multiple
// records and many packets (segmentation, reassembly, and the NIC
// offload counter all in play), driven by a few closed-loop streams.
const (
	ChaosRPCSize = 30000
	ChaosStreams = 4
)

// ChaosLevels is the swept fault-intensity grid, mildest first. Every
// level is applied to every registered stack by the "chaos" experiment.
// The burst level holds mild background faults and multiplies them 10×
// in the middle of the measurement window (the runFabricLoops window is
// 5 ms warmup + 25 ms measure).
var ChaosLevels = []struct {
	Name string
	C    Chaos
}{
	{"drizzle", Chaos{Loss: 0.001, Dup: 0.001, Reorder: 0.005, Corrupt: 0.002}},
	{"storm", Chaos{Loss: 0.01, Dup: 0.005, Reorder: 0.02, Corrupt: 0.01}},
	{"burst", Chaos{Loss: 0.002, Dup: 0.002, Reorder: 0.01, Corrupt: 0.005,
		BurstAt: 12 * sim.Millisecond, BurstLen: 4 * sim.Millisecond, BurstFactor: 10}},
}

// chaosSeed gives each intensity level a distinct deterministic seed.
func chaosSeed(level int) int64 { return 13000 + int64(level) }

// ChaosRow is one (stack, chaos config) cell.
type ChaosRow struct {
	System    string
	Completed uint64 // post-warmup RPC completions

	GoodputGbps float64

	// TamperedDelivered counts application payloads that failed the RPC
	// body-pattern check — tampered bytes a stack delivered as if they
	// were real data. Encrypted stacks must keep this at zero.
	TamperedDelivered uint64
	// WireTampered counts tampered packets the network committed for
	// delivery (the exposure the receivers must reject).
	WireTampered uint64

	// AuditViolations is the auditor's total violation count (zero for
	// every stack, at every intensity, is the acceptance bar).
	AuditViolations uint64
	// SlotRewrites / Desyncs are the auditor's tolerated-anomaly counts
	// (see audit.Stats).
	SlotRewrites, Desyncs uint64

	// Resyncs / SealCorrupted sum the hosts' NIC offload counters: how
	// often the autonomous-offload counter was repaired, and how often a
	// record was sealed with a desynchronized counter (§3.2).
	Resyncs, SealCorrupted uint64

	// Quiesced reports that the world drained to an empty event queue
	// after the run; Outstanding counts the pooled packets and message
	// buffers still held at that point (must be zero when quiesced).
	Quiesced    bool
	Outstanding int
}

// MeasureChaos runs one stack under a chaos config on the two-host
// world with the wire auditor attached, then settles the world (see
// settle): the returned row carries everything the fail-closed battery
// asserts.
func MeasureChaos(spec StackSpec, c Chaos, seed int64) (ChaosRow, error) {
	return measureChaos(spec, c, seed, &auditScope{})
}

// measureChaos is MeasureChaos on a registry point's scope. Chaos values
// are audit results, so the scope is switched on whatever the run's
// audit option says; the runner settles the world again (idempotently)
// when the point returns.
func measureChaos(spec StackSpec, c Chaos, seed int64, a *auditScope) (ChaosRow, error) {
	a.on = true
	sys, err := buildFabric(spec, a)
	if err != nil {
		return ChaosRow{}, err
	}
	w := NewWorld(seed)
	var tampered uint64
	w.Check = func(m []byte) {
		if !rpc.BodyValid(m) {
			tampered++
		}
	}
	var loops []*rpc.ClosedLoop
	issue, err := sys.Setup(w, []*cpusim.Host{w.Client}, w.Server,
		FabricConfig{StreamsPerClient: ChaosStreams, MTU: mtuOrDefault(0)},
		func(client int, reqID uint64) { loops[client].Done(reqID) })
	if err != nil {
		return ChaosRow{}, err
	}
	// Faults arm only after setup: connection establishment under a
	// partitioned-looking network is a different experiment.
	c.apply(w)
	loops = newFabricLoops(w, 1, issue, ChaosRPCSize, ChaosRPCSize)
	_, completed, window := runFabricLoops(w, loops, ChaosStreams)
	// The row reports what settling found; the runner's settle turns a
	// failure into the point's error.
	quiesced, outstanding, _ := settle(w)
	st := w.Audit.Stats()
	row := ChaosRow{
		System:            sys.Name,
		Completed:         completed,
		GoodputGbps:       float64(completed) * ChaosRPCSize * 8 / window.Seconds() / 1e9,
		TamperedDelivered: tampered,
		WireTampered:      st.Tampered,
		AuditViolations:   st.TotalViolations,
		SlotRewrites:      st.SlotRewrites,
		Desyncs:           st.Desyncs,
		Quiesced:          quiesced,
		Outstanding:       outstanding,
	}
	for _, h := range w.Hosts {
		row.Resyncs += h.NIC.Stats.Resyncs
		row.SealCorrupted += h.NIC.Stats.Corrupted
	}
	return row, nil
}

// chaosValues flattens a chaos row into registry values.
func chaosValues(r ChaosRow) Values {
	q := 0.0
	if r.Quiesced {
		q = 1
	}
	return Values{
		"completed":          float64(r.Completed),
		"goodput_gbps":       r.GoodputGbps,
		"tampered_delivered": float64(r.TamperedDelivered),
		"wire_tampered":      float64(r.WireTampered),
		"audit_violations":   float64(r.AuditViolations),
		"slot_rewrites":      float64(r.SlotRewrites),
		"desyncs":            float64(r.Desyncs),
		"resyncs":            float64(r.Resyncs),
		"seal_corrupted":     float64(r.SealCorrupted),
		"quiesced":           q,
		"outstanding":        float64(r.Outstanding),
	}
}
