package experiments

import (
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// expectedExperiments is the full catalogue every build must register.
var expectedExperiments = []string{
	"bigworld", "chaos", "churn", "cpuusage", "fig10", "fig11", "fig12",
	"fig2", "fig5", "fig6", "fig7", "fig7mtu", "fig8", "fig9", "incast",
	"loadsweep", "multiclient", "table1", "table2",
}

func TestRegistryCatalogue(t *testing.T) {
	names := Names()
	if !sort.StringsAreSorted(names) {
		t.Errorf("Names() not sorted: %v", names)
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, want := range expectedExperiments {
		if !have[want] {
			t.Errorf("experiment %q not registered", want)
		}
	}
	if len(names) != len(expectedExperiments) {
		t.Errorf("registered %d experiments, want %d: %v", len(names), len(expectedExperiments), names)
	}
}

// TestArchitectureExperimentTable keeps ARCHITECTURE.md's experiment
// table in step with the registry: its "Registered name" column must
// list exactly Names().
func TestArchitectureExperimentTable(t *testing.T) {
	doc, err := os.ReadFile("../../ARCHITECTURE.md")
	if err != nil {
		t.Fatal(err)
	}
	col := -1
	var documented []string
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(line, "|")
		if col < 0 {
			for i, c := range cells {
				if strings.TrimSpace(c) == "Registered name" {
					col = i
				}
			}
			continue
		}
		if !strings.HasPrefix(line, "|") {
			if len(documented) > 0 {
				break // end of the table
			}
			continue
		}
		if col >= len(cells) {
			t.Fatalf("table row %q has no column %d", line, col)
		}
		if name := strings.Trim(strings.TrimSpace(cells[col]), "`"); name != "" && !strings.HasPrefix(name, "---") {
			documented = append(documented, name)
		}
	}
	sort.Strings(documented)
	if !reflect.DeepEqual(documented, Names()) {
		t.Errorf("ARCHITECTURE.md experiment table lists %v, registry has %v", documented, Names())
	}
}

func TestRegistryLookup(t *testing.T) {
	e, ok := Lookup("fig6")
	if !ok {
		t.Fatal("fig6 not registered")
	}
	if e.Name() != "fig6" || e.Describe() == "" {
		t.Errorf("fig6 metadata wrong: name=%q desc=%q", e.Name(), e.Describe())
	}
	if _, ok := Lookup("fig99"); ok {
		t.Error("Lookup(fig99) should fail")
	}
	all := All()
	if len(all) != len(Names()) {
		t.Errorf("All() returned %d, Names() %d", len(all), len(Names()))
	}
	for i, n := range Names() {
		if all[i].Name() != n {
			t.Errorf("All()[%d] = %q, want %q", i, all[i].Name(), n)
		}
	}
}

// TestRegistryPoints checks every experiment's decomposition contract:
// contiguous indexes, unique keys, and a stable point list.
func TestRegistryPoints(t *testing.T) {
	for _, e := range All() {
		pts := e.Points(nil)
		if len(pts) == 0 {
			t.Errorf("%s: no points", e.Name())
			continue
		}
		keys := map[string]bool{}
		for i, p := range pts {
			if p.Index != i {
				t.Errorf("%s: point %d has Index %d", e.Name(), i, p.Index)
			}
			if p.Key == "" {
				t.Errorf("%s: point %d has empty key", e.Name(), i)
			}
			if keys[p.Key] {
				t.Errorf("%s: duplicate point key %q", e.Name(), p.Key)
			}
			keys[p.Key] = true
		}
		again := e.Points(nil)
		if len(again) != len(pts) {
			t.Errorf("%s: Points() unstable: %d then %d", e.Name(), len(pts), len(again))
			continue
		}
		for i := range pts {
			if again[i] != pts[i] {
				t.Errorf("%s: Points()[%d] unstable: %+v then %+v", e.Name(), i, pts[i], again[i])
			}
		}
	}
}

// TestRegistryPointCounts pins every registered decomposition to its
// exported sweep grid, so a grid edit the registry does not follow (or
// a new registration with no count here) fails fast.
func TestRegistryPointCounts(t *testing.T) {
	lineup := len(DefaultLineup())
	want := map[string]int{
		"bigworld":    len(BigWorldLineup()),
		"chaos":       len(ChaosLevels) * len(Stacks()),
		"churn":       len(ChurnRates) * len(churnPoints(DefaultLineup())),
		"fig6":        len(Fig6Sizes) * lineup,
		"fig7":        len(Fig7Sizes) * len(Fig7Concurrency) * lineup,
		"fig7mtu":     len(Fig7MTUConcurrency) * len(Fig7MTUs) * 2,
		"cpuusage":    len(CPUUsageLineup()),
		"fig8":        len(Fig8Values) * len(Fig8Workloads) * len(RedisLineup()),
		"fig9":        len(Fig9Depths) * lineup,
		"fig10":       len(Fig10Sizes) * 3,
		"fig11":       len(Fig11Sizes) * 2,
		"fig12":       len(Fig12Sizes) * len(Fig12Modes),
		"fig2":        len(fig2Scenarios),
		"fig5":        len(Fig5()),
		"table1":      len(Table1()),
		"table2":      1,
		"incast":      len(IncastClients) * len(IncastSizes) * lineup,
		"loadsweep":   len(LoadSweepLoads) * lineup,
		"multiclient": len(MulticlientCounts) * lineup,
	}
	names := make([]string, 0, len(want))
	for name := range want {
		names = append(names, name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, Names()) {
		t.Errorf("point-count table covers %v, registry has %v", names, Names())
	}
	for name, n := range want {
		e, ok := Lookup(name)
		if !ok {
			t.Errorf("%s not registered", name)
			continue
		}
		if got := len(e.Points(nil)); got != n {
			t.Errorf("%s: %d points, want %d (registry out of sync with its grid)", name, got, n)
		}
	}
}

func TestRegisterDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("duplicate Register did not panic")
		}
	}()
	register("fig6", "dup", func([]StackSpec) []pointSpec { return nil })
}

func TestRunOutOfRangePoint(t *testing.T) {
	e, _ := Lookup("fig2")
	res := RunPoints(e, []Point{{Index: 99, Key: "bogus"}}, RunOptions{})[0]
	if res.Err == "" {
		t.Error("out-of-range point should report an error")
	}
	if res.Experiment != "fig2" {
		t.Errorf("error result should carry the experiment name, got %q", res.Experiment)
	}
	// A stale key (recorded before a grid edit shifted the indexes)
	// fails instead of measuring whichever cell lives there now.
	stale := RunPoints(e, []Point{{Index: 0, Key: "bogus"}}, RunOptions{})[0]
	if !strings.Contains(stale.Err, "no longer at index") {
		t.Errorf("stale key should report an error, got %+v", stale)
	}
}

// TestRunRecoversPanic checks that a panicking point surfaces as
// Result.Err rather than killing the worker pool.
func TestRunRecoversPanic(t *testing.T) {
	e := &Experiment{name: "boom", desc: "test", build: func([]StackSpec) []pointSpec {
		return []pointSpec{{Key: "p0", Run: func(*auditScope) (Values, error) { panic("kaboom") }}}
	}}
	res := Run(e, RunOptions{Workers: 2})
	if len(res) != 1 || res[0].Err != "kaboom" {
		t.Errorf("want recovered panic in Err, got %+v", res)
	}
}
