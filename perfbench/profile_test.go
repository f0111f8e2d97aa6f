package main

import (
	"bytes"
	"math"
	"runtime/pprof"
	"testing"
	"time"

	"smt/internal/experiments"
)

func TestSplitByLayer(t *testing.T) {
	samples := []sample{
		{[]string{"runtime.memmove", "smt/internal/homa.(*Socket).Send", "main.run"}, 10e6},
		{[]string{"runtime.gcBgMarkWorker", "runtime.goexit"}, 20e6},
		{[]string{"crypto/internal/fips140/aes/gcm.gcmAesEnc", "smt/internal/tlsrec.(*AEAD).SealRecord", "smt/internal/core.(*Codec).Encode"}, 30e6},
		{[]string{"runtime.nextFreeFast", "runtime.mallocgc", "smt/internal/sim.(*Engine).Post"}, 40e6},
		{[]string{"encoding/json.Marshal", "main.(*rowChecker).check"}, 50e6},
	}
	s, err := splitByLayer(samples)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]float64{"homa": 0.01, gcLayer: 0.02, "tlsrec": 0.03, "sim": 0.04, benchLayer: 0.05}
	for l, v := range want {
		if math.Abs(s.self[l]-v) > 1e-12 {
			t.Errorf("self[%s] = %v, want %v", l, s.self[l], v)
		}
	}
	if len(s.self) != len(want) {
		t.Errorf("self has layers %v, want %v", s.self, want)
	}
	if s.copy != 0.01 || s.crypto != 0.03 || s.malloc != 0.04 || math.Abs(s.total-0.15) > 1e-12 {
		t.Errorf("copy %v crypto %v malloc %v total %v", s.copy, s.crypto, s.malloc, s.total)
	}
	if _, err := splitByLayer([]sample{{[]string{"smt/internal/newpkg.F"}, 1}}); err == nil {
		t.Error("a sample in a package with no layer must be an error")
	}
}

// TestProfileRoundTrip profiles real simulator work and checks that the
// decoder reads it and that every sample lands in exactly one layer.
func TestProfileRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.Skip("CPU profiler busy:", err)
	}
	spec, _ := experiments.LookupStack("SMT-sw")
	deadline := time.Now().Add(300 * time.Millisecond)
	for seed := int64(1); time.Now().Before(deadline); seed++ {
		if _, err := experiments.MeasureChurn(spec, experiments.HS0RTT, churnRate, seed); err != nil {
			pprof.StopCPUProfile()
			t.Fatal(err)
		}
	}
	pprof.StopCPUProfile()
	samples, err := parseProfile(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(samples) == 0 {
		t.Fatal("no samples")
	}
	s, err := splitByLayer(samples)
	if err != nil {
		t.Fatal(err)
	}
	named := map[string]bool{gcLayer: true}
	for _, l := range layerNames() {
		named[l] = true
	}
	var sum float64
	for l, v := range s.self {
		if !named[l] {
			t.Errorf("sample in unnamed layer %q", l)
		}
		sum += v
	}
	if math.Abs(sum-s.total) > 1e-9 {
		t.Errorf("layers sum to %v s, profile holds %v s", sum, s.total)
	}
	if s.self["handshake"] == 0 && s.crypto == 0 {
		t.Errorf("0-RTT churn profile shows no handshake or crypto time: %v", s.self)
	}
}
