package experiments

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// This file defines the experiment registry: every figure/table of the
// paper's evaluation registers itself (see register.go) as a named
// Experiment whose sweep is decomposed into independent Points. A Point
// is one (configuration, seed) cell — it builds its own World, so any
// subset of points can run concurrently (see runner.go) and in any
// order, while results stay deterministic and deterministically ordered.

// Experiment is one named table/figure of the evaluation: a sweep
// decomposed into independent points.
//
// The decomposition must be stable: for a given lineup an experiment
// always yields the same point list, in the same order, with the same
// keys and seeds.
type Experiment struct {
	name string
	desc string
	// build decomposes the sweep over a stack lineup. The lineup-driven
	// sweeps (fig6, fig7, fig9, incast, multiclient, loadsweep, churn)
	// iterate it; every other experiment ignores it.
	build func(lineup []StackSpec) []pointSpec
}

// Name is the registry key, e.g. "fig6".
func (e *Experiment) Name() string { return e.name }

// Describe is a one-line human description.
func (e *Experiment) Describe() string { return e.desc }

// Points enumerates the independent cells of the sweep over stacks
// (nil or empty means DefaultLineup).
func (e *Experiment) Points(stacks []StackSpec) []Point {
	specs := e.build(lineupOrDefault(stacks))
	pts := make([]Point, len(specs))
	for i, s := range specs {
		pts[i] = Point{Index: i, Key: s.Key, Seed: s.Seed}
	}
	return pts
}

// Point identifies one independent cell of an experiment's sweep.
type Point struct {
	// Index is the point's position in the experiment's canonical
	// order; results are reported sorted by Index.
	Index int `json:"index"`
	// Key is a stable human-readable identifier, e.g.
	// "sys=SMT-sw/size=1024".
	Key string `json:"key"`
	// Seed is the deterministic world seed the point runs under.
	Seed int64 `json:"seed"`
}

// Values holds the numeric outputs of one point, keyed by metric name.
type Values = map[string]float64

// Labels holds the qualitative outputs/coordinates of one point.
type Labels = map[string]string

// Result is the machine-readable outcome of one point.
type Result struct {
	Experiment string `json:"experiment"`
	Index      int    `json:"index"`
	Key        string `json:"key"`
	Seed       int64  `json:"seed,omitempty"`
	Labels     Labels `json:"labels,omitempty"`
	Values     Values `json:"values,omitempty"`
	// ElapsedMs is the wall-clock cost of running the point (the
	// simulation cost, not the virtual-time result).
	ElapsedMs float64 `json:"elapsed_ms"`
	// Err is set when the point returned an error (a stack that could
	// not be built or wired), panicked instead of completing, or — in an
	// audited run — left a world that did not settle clean.
	Err string `json:"error,omitempty"`
	// AuditedWorlds counts the worlds the runner settled after the
	// point returned: every world an audited point built, and the chaos
	// battery's always-audited world. Runner metadata, never part of
	// the artifact.
	AuditedWorlds int `json:"-"`
}

// pointSpec is the in-package building block of registered experiments:
// one cell's identity plus the closure that measures it. Run reports
// setup failures (unbuildable stacks, key material) as error returns;
// panics are still recovered as a last resort. Run hands its audit
// scope to every world it builds (see audit.go).
type pointSpec struct {
	Key    string
	Seed   int64
	Labels Labels
	Run    func(a *auditScope) (Values, error)
}

// runPoint executes one point against a decomposition built once per
// RunPoints call, auditing its worlds when audit is set. It must not
// depend on any other point having run.
func (e *Experiment) runPoint(specs []pointSpec, p Point, audit bool) Result {
	res := Result{Experiment: e.name, Index: p.Index, Key: p.Key, Seed: p.Seed}
	if p.Index < 0 || p.Index >= len(specs) {
		res.Err = fmt.Sprintf("point index %d out of range [0,%d)", p.Index, len(specs))
		return res
	}
	s := specs[p.Index]
	// A stale point (recorded before a grid edit shifted the indexes)
	// must fail loudly, not measure whichever cell lives there now.
	if p.Key != "" && p.Key != s.Key {
		res.Err = fmt.Sprintf("point key %q no longer at index %d (now %q)", p.Key, p.Index, s.Key)
		return res
	}
	res.Key, res.Seed, res.Labels = s.Key, s.Seed, s.Labels
	//smt:allow determinism -- wall-clock elapsed time is runner metadata, never part of the measured artifact
	start := time.Now()
	a := &auditScope{on: audit}
	func() {
		defer func() {
			if r := recover(); r != nil {
				res.Err = fmt.Sprint(r)
			}
		}()
		var err error
		res.Values, err = s.Run(a)
		if err != nil {
			res.Err = err.Error()
		}
	}()
	res.AuditedWorlds = len(a.worlds)
	for i := 0; res.Err == "" && i < len(a.worlds); i++ {
		if _, _, err := settle(a.worlds[i]); err != nil {
			res.Err = fmt.Sprintf("%s: audited world %d of %d: %v", s.Key, i+1, len(a.worlds), err)
		}
	}
	//smt:allow determinism -- wall-clock elapsed time is runner metadata, never part of the measured artifact
	res.ElapsedMs = float64(time.Since(start)) / 1e6
	return res
}

var (
	regMu    sync.RWMutex
	registry = map[string]*Experiment{}
)

// register adds an experiment under its name (register.go's init). It
// panics on a duplicate or empty name — registration is an init-time
// programming contract.
func register(name, desc string, build func(lineup []StackSpec) []pointSpec) {
	if name == "" {
		//smt:allow panic -- init-time registration contract; a nameless experiment can never be looked up
		panic("experiments: register with empty name")
	}
	regMu.Lock()
	defer regMu.Unlock()
	if _, dup := registry[name]; dup {
		//smt:allow panic -- init-time registration contract; a duplicate would silently shadow an experiment
		panic("experiments: duplicate register of " + name)
	}
	registry[name] = &Experiment{name: name, desc: desc, build: build}
}

// Lookup returns the experiment registered under name.
func Lookup(name string) (*Experiment, bool) {
	regMu.RLock()
	defer regMu.RUnlock()
	e, ok := registry[name]
	return e, ok
}

// Names returns all registered experiment names, sorted.
func Names() []string {
	regMu.RLock()
	defer regMu.RUnlock()
	names := make([]string, 0, len(registry))
	//smt:allow determinism -- names are sorted before use; iteration order never escapes
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// All returns all registered experiments, sorted by name.
func All() []*Experiment {
	names := Names()
	regMu.RLock()
	defer regMu.RUnlock()
	exps := make([]*Experiment, len(names))
	for i, n := range names {
		exps[i] = registry[n]
	}
	return exps
}
