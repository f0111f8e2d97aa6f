package experiments

import (
	"bytes"
	"testing"

	"smt/internal/audit"
	"smt/internal/cpusim"
	"smt/internal/rpc"
)

// This file is the auditor's acceptance bar over the whole registry:
// every registered experiment must run green under the wire-compliance
// tap, and because the tap is a pure observer, the artifacts must stay
// byte-identical with auditing on. Both tests read the battery pass of
// determinism_test.go (batteryOf) rather than running points of their
// own. The negative control at the bottom proves the bar has teeth: a
// deliberately planted plaintext leak must be flagged, and the world
// must then fail to settle.

// TestAuditorGreenAcrossRegistry asserts that every audited point of
// the battery settled clean — quiescence, zero violations (plaintext,
// nonce/keystream reuse, framing), conservation at quiescence, a tap
// that saw packets, empty packet and message-buffer pools (see settle)
// — and that it audited exactly the worlds it builds, so a build
// function that skips attach shows up here. The unaudited pass must
// audit nothing but the chaos battery's world.
func TestAuditorGreenAcrossRegistry(t *testing.T) {
	forEachBatteryExperiment(t, func(t *testing.T, e *Experiment, p *batteryPass) {
		wantPlain := 0
		if e.Name() == "chaos" {
			wantPlain = 1 // chaos values are audit results: always audited
		}
		for i := range p.pts {
			a, s := p.audited[i], p.plain[i]
			if a.Err != "" {
				t.Errorf("audited run: %s", a.Err)
			}
			if s.Err != "" {
				t.Errorf("unaudited run: %s", s.Err)
			}
			if n, want := a.AuditedWorlds, auditedWorlds(e.Name()); n != want {
				t.Errorf("%s: audited run settled %d worlds, want %d", a.Key, n, want)
			}
			if n := s.AuditedWorlds; n != wantPlain {
				t.Errorf("%s: unaudited run settled %d worlds, want %d", s.Key, n, wantPlain)
			}
		}
	})
}

// TestAuditArtifactIdentity pins the observer contract end to end on
// the headline experiments: their seeded JSON artifacts are
// byte-identical with the audit tap attached and without it, and the
// audited run did audit worlds. Any engine RNG draw, schedule
// perturbation, or packet mutation by the auditor breaks this.
func TestAuditArtifactIdentity(t *testing.T) {
	for _, name := range []string{"fig6", "fig10", "incast", "loadsweep"} {
		name := name
		t.Run(name, func(t *testing.T) {
			e, ok := Lookup(name)
			if !ok {
				t.Fatalf("%s not registered", name)
			}
			t.Parallel()
			p := batteryOf(e)
			audited := 0
			for _, r := range p.audited {
				audited += r.AuditedWorlds
			}
			if audited == 0 {
				t.Fatal("no worlds were audited — RunOptions.Audit not reaching the world builders")
			}
			if a, s := artifactJSON(t, e, p.audited), artifactJSON(t, e, p.plain); !bytes.Equal(a, s) {
				t.Errorf("artifact changed with audit tap attached:\noff: %s\non:  %s", s, a)
			}
		})
	}
}

// TestAuditorPlaintextLeakControl runs the plain TCP fabric (whose wire
// bytes genuinely are plaintext) but tells the auditor to expect
// ciphertext, simulating an encrypted stack that leaks. The auditor
// must flag the leak — if this test fails, TestAuditorGreenAcrossRegistry
// is vacuous.
func TestAuditorPlaintextLeakControl(t *testing.T) {
	a := &auditScope{on: true}
	sys, err := buildFabric(mustStack("TCP"), a)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(4242)
	var loops []*rpc.ClosedLoop
	issue, err := sys.Setup(w, []*cpusim.Host{w.Client}, w.Server,
		FabricConfig{StreamsPerClient: 2, MTU: mtuOrDefault(0)},
		func(client int, reqID uint64) { loops[client].Done(reqID) })
	if err != nil {
		t.Fatal(err)
	}
	if len(a.worlds) != 1 || w.Audit == nil {
		t.Fatalf("Setup audited %d worlds, want this one", len(a.worlds))
	}
	// Setup just declared the plain stack's (honest) policy; override it
	// to plant the leak.
	w.Audit.SetExpectCiphertext(true)
	loops = newFabricLoops(w, 1, issue, ChaosRPCSize, ChaosRPCSize)
	runFabricLoops(w, loops, 2)
	if _, _, err := settle(w); err == nil {
		t.Error("a world with a planted plaintext leak settled clean")
	}
	leaks := 0
	for _, v := range w.Audit.Violations() {
		if v.Kind == audit.KindPlaintextLeak {
			leaks++
		}
	}
	if leaks == 0 {
		t.Fatalf("auditor missed a planted plaintext leak (violations: %v)", w.Audit.Violations())
	}
}
