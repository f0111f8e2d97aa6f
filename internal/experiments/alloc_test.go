package experiments

import (
	"runtime"
	"testing"

	"smt/internal/sim"
)

// This file pins the steady-state allocation behavior of the data path.
// Packets and events come from per-world pools, and message bytes live
// in the world's wire.BufPool from the send copy to the acknowledgment
// and from reassembly to the end of the delivery callback. A warmed-up
// echo therefore allocates only a small constant number of
// message-level bookkeeping objects (outMsg/inMsg state, per-message
// closures, record descriptor lists) — never per-packet, per-event or
// per-record memory, and never the message bytes themselves.
//
// Two budgets per stack catch the two ways this regresses: allocations
// per 4 KiB echo (a 4 KiB echo still crosses several packets, ACKs,
// grants and dozens of scheduler events, so a per-packet allocation
// shows up as hundreds) and heap bytes per 64 KiB echo (a copy of the
// message that escapes the pool shows up as at least 64 KiB).

// echoWorld builds the two-host world for one stack and returns an echo
// function that runs one size-byte request/response to completion. The
// pools and caches are warmed with 64 echoes, well past the first
// growth of every free list and map.
func echoWorld(t *testing.T, stack string, size int) func() {
	t.Helper()
	sys := must(BuildSystem(mustStack(stack)))
	w := NewWorld(7)
	doneID := uint64(0)
	gotDone := false
	issue, err := sys.Setup(w, 1, 0, false, func(id uint64) { doneID, gotDone = id, true })
	if err != nil {
		t.Fatalf("setup %s: %v", stack, err)
	}
	nextID := uint64(0)
	echo := func() {
		id := nextID
		nextID++
		gotDone = false
		issue(0, id, size, size)
		deadline := w.Eng.Now() + 50*sim.Millisecond
		for !gotDone && w.Eng.Now() < deadline {
			w.Eng.RunUntil(w.Eng.Now() + 100*sim.Microsecond)
		}
		if !gotDone || doneID != id {
			t.Fatalf("%s: echo %d did not complete (done=%v id=%d)", stack, id, gotDone, doneID)
		}
	}
	for i := 0; i < 64; i++ {
		echo()
	}
	return echo
}

// echoRuns is the number of measured steady-state echoes.
const echoRuns = 50

// echoAllocsPerOp measures allocations per steady-state echo.
func echoAllocsPerOp(t *testing.T, stack string, size int) float64 {
	t.Helper()
	return testing.AllocsPerRun(echoRuns, echoWorld(t, stack, size))
}

// echoBytesPerOp measures heap bytes allocated per steady-state echo:
// the runtime.MemStats.TotalAlloc delta over echoRuns echoes.
func echoBytesPerOp(t *testing.T, stack string, size int) float64 {
	t.Helper()
	echo := echoWorld(t, stack, size)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < echoRuns; i++ {
		echo()
	}
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / echoRuns
}

// TestSteadyStateAllocs pins per-echo allocation and heap-byte budgets
// for every registered stack. Budgets are measured values plus about
// 30% headroom for map-growth variance. If this fails after a change,
// run with -v to see the measured numbers and look for a new per-packet
// allocation, or a message copy that bypasses the world's BufPool.
func TestSteadyStateAllocs(t *testing.T) {
	if testing.Short() {
		t.Skip("allocation measurement is timing-insensitive but not short")
	}
	// Allocations per 4 KiB echo (request + response). Measured: TCP,
	// kTLS-sw, TLS and TCPLS 31, kTLS-hw 33, Homa 37, SMT-sw 35, SMT-hw
	// 37.
	allocBudgets := map[string]float64{
		"TCP":     40,
		"kTLS-sw": 40,
		"kTLS-hw": 43,
		"TLS":     40,
		"TCPLS":   40,
		"Homa":    48,
		"SMT-sw":  46,
		"SMT-hw":  48,
	}
	// Heap bytes per 64 KiB echo, which moves 128 KiB of message bytes.
	// Measured: TCP 11.6k, kTLS-sw/TLS/TCPLS 13.6k, kTLS-hw 13.9k, Homa
	// 6.0k, SMT-sw 5.7k, SMT-hw 5.8k — the per-packet and per-record
	// descriptors, closures and queue growth that remain. The budgets sit
	// far below one message: a single copy of the request or the
	// response that escapes the pool exceeds them.
	byteBudgets := map[string]float64{
		"TCP":     15000,
		"kTLS-sw": 18000,
		"kTLS-hw": 18000,
		"TLS":     18000,
		"TCPLS":   18000,
		"Homa":    8000,
		"SMT-sw":  7500,
		"SMT-hw":  7500,
	}
	for _, spec := range Stacks() {
		spec := spec
		t.Run(spec.Name, func(t *testing.T) {
			allocBudget, ok := allocBudgets[spec.Name]
			byteBudget, ok2 := byteBudgets[spec.Name]
			if !ok || !ok2 {
				t.Fatalf("no allocation budget for registered stack %q — add one", spec.Name)
			}
			allocs := echoAllocsPerOp(t, spec.Name, 4096)
			bytes := echoBytesPerOp(t, spec.Name, 64<<10)
			t.Logf("%s: %.1f allocs per 4KiB echo (budget %.0f), %.0f B per 64KiB echo (budget %.0f)",
				spec.Name, allocs, allocBudget, bytes, byteBudget)
			if allocs > allocBudget {
				t.Errorf("%s: %.1f allocs per echo exceeds budget %.0f — a per-packet or per-event allocation crept back in", spec.Name, allocs, allocBudget)
			}
			if bytes > byteBudget {
				t.Errorf("%s: %.0f heap bytes per 64KiB echo exceeds budget %.0f — a message copy escaped the BufPool", spec.Name, bytes, byteBudget)
			}
		})
	}
}
