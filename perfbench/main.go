// Command perfbench is the repository's benchmark: the host cost of
// simulating three sweeps of the default six-stack lineup, with every
// simulated row checked. See README.md for the workloads, the metrics
// and how to run it.
package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"syscall"
	"time"
)

//go:embed golden.json
var goldenJSON []byte

const (
	// refSeed is the reference seed golden.json was captured on.
	refSeed = 1
	// subSeeds is how many seeds a run derives from --seed: pass p runs
	// every point on sub-seed p mod subSeeds. golden.json holds the
	// reference seed's rows for all of them.
	subSeeds = 8
	// setupRuns is how many fresh processes measure setup_s.
	setupRuns = 3
	// maxProcs caps GOMAXPROCS: points run one at a time, and the second
	// core is left to the concurrent GC.
	maxProcs = 2
)

// Set at link time by run.sh.
var (
	commit       = "unknown"
	sourceDigest = "unknown"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	name := fs.String("workload", "", "workload to run: rpc-bulk, fabric-openloop or conn-churn")
	seed := fs.Int64("seed", 1, "workload seed; every point's seed derives from it")
	seconds := fs.Float64("seconds", 10, "how long to measure, in host seconds")
	trace := fs.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from a profiled run")
	setupChild := fs.Bool("setup-child", false, "run the workload's set-up once and exit (used to time setup_s)")
	writeGolden := fs.String("write-golden", "", "capture every workload's rows on the reference seed into this file and exit")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if runtime.GOMAXPROCS(0) > maxProcs {
		runtime.GOMAXPROCS(maxProcs)
	}
	if *writeGolden != "" {
		return captureGolden(*writeGolden)
	}
	wl, err := lookupWorkload(*name)
	if err != nil {
		return err
	}
	g, err := loadGolden(goldenJSON)
	if err != nil {
		return err
	}
	if *setupChild {
		b := newBench(wl, g, refSeed)
		if err := b.warmUp(); err != nil {
			return err
		}
		if b.failed > 0 {
			return errors.New("warm-up point failed its check")
		}
		return nil
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace %d: want 0 or 1", *trace)
	}
	b := newBench(wl, g, *seed)
	var setupS float64
	if *trace == 0 {
		if setupS, err = b.timeSetup(); err != nil {
			return err
		}
	}
	if err := b.warmUp(); err != nil {
		return err
	}
	res, err := b.measure(*seconds, *trace == 1)
	if err != nil {
		return err
	}
	var m map[string]metric
	if *trace == 1 {
		m, err = res.layerMetrics(b)
		if err != nil {
			return err
		}
	} else {
		m = res.endToEndMetrics(b, setupS)
	}
	env, err := json.Marshal(map[string]any{"perfbench_env": stamp(wl.name, *seed, *seconds, *trace)})
	if err != nil {
		return err
	}
	out, err := json.Marshal(result{
		Correct:   b.failed == 0,
		Attempted: b.attempted,
		Failed:    b.failed,
		Metrics:   m,
	})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n%s\n", env, out)
	return err
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// bench runs one workload's points and tallies their outcomes.
type bench struct {
	wl         workload
	seed       int64
	checker    *rowChecker
	attempted  int
	failed     int
	buildSpans []float64 // wall seconds wiring the lineup into points
	pointSpans []float64 // wall seconds of each Measure* call
}

func newBench(wl workload, g *golden, seed int64) *bench {
	return &bench{wl: wl, seed: seed, checker: newRowChecker(wl, g, seed)}
}

// pointSeed derives a point's seed from the workload seed, the pass's
// sub-seed index and the point's slot (splitmix64 finalizer).
func pointSeed(seed int64, sub, slot int) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(1+sub*64+slot)
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return int64((z ^ z>>31) >> 1)
}

// buildPoints wires the lineup, recording the span.
func (b *bench) buildPoints() ([]point, error) {
	t := time.Now()
	pts, err := b.wl.points()
	b.buildSpans = append(b.buildSpans, time.Since(t).Seconds())
	if err != nil {
		return nil, fmt.Errorf("%s: wiring the lineup: %w", b.wl.name, err)
	}
	return pts, nil
}

// runPoint runs and checks one point and returns its row and the CPU
// seconds of the thread that ran it. A point fails if it returns an
// error, panics or fails the output check; the failure is logged and
// counted, and the row is nil.
func (b *bench) runPoint(p point, seed int64) (row any, cpuS float64) {
	b.attempted++
	// Start every point from a collected heap, so garbage from the
	// previous point is not charged to this one.
	runtime.GC()
	// The point runs on this goroutine alone; pinning it to its thread
	// makes the thread's CPU clock the point's cost.
	runtime.LockOSThread()
	cpu0, t := threadCPU(), time.Now()
	row, err := func() (row any, err error) {
		defer func() {
			if r := recover(); r != nil {
				err = fmt.Errorf("panic: %v", r)
			}
		}()
		return p.run(seed)
	}()
	b.pointSpans = append(b.pointSpans, time.Since(t).Seconds())
	cpuS = threadCPU() - cpu0
	runtime.UnlockOSThread()
	if err == nil {
		err = b.checker.check(p.key, seed, row)
	}
	if err != nil {
		b.failed++
		fmt.Fprintf(os.Stderr, "perfbench: %s %s seed %d: %v\n", b.wl.name, p.key, seed, err)
		return nil, cpuS
	}
	return row, cpuS
}

// warmUp wires the lineup and runs the workload's warm-up point on the
// reference seed, so its row is always checked against golden.json.
func (b *bench) warmUp() error {
	pts, err := b.buildPoints()
	if err != nil {
		return err
	}
	for _, p := range pts {
		if p.key == b.wl.warm {
			b.runPoint(p, pointSeed(refSeed, 0, p.slot))
			return nil
		}
	}
	return fmt.Errorf("%s: no warm-up point %q", b.wl.name, b.wl.warm)
}

// timeSetup starts setupRuns fresh processes that each wire the lineup
// and run the warm-up point, and returns the median CPU seconds each
// used from start to exit. A process that fails counts as a failed
// point.
func (b *bench) timeSetup() (float64, error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, err
	}
	var times []float64
	for i := 0; i < setupRuns; i++ {
		cmd := exec.Command(exe, "--setup-child", "--workload", b.wl.name)
		cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
		b.attempted++
		if err := cmd.Run(); err != nil {
			b.failed++
			fmt.Fprintf(os.Stderr, "perfbench: %s set-up process: %v\n", b.wl.name, err)
			continue
		}
		times = append(times, (cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()).Seconds())
	}
	if len(times) == 0 {
		return 0, errors.New("no set-up process succeeded")
	}
	return median(times), nil
}

// pass is what one pass over every point of the workload measured.
type pass struct {
	traced   bool
	cpuS     float64   // process CPU seconds over the pass
	rssMB    float64   // peak resident set over the pass
	pointCPU []float64 // thread CPU seconds of each point, in point order
	counts   counts
	alloc    [3]uint64  // heap bytes, heap objects, GC cycles
	split    layerSplit // traced passes only
}

type measurement struct {
	passes []pass
}

// measure runs passes until the next one would end more than half a
// pass past the budget. With traced set, passes come in pairs on the
// same sub-seed: the first untraced, the second under the CPU profiler.
func (b *bench) measure(seconds float64, traced bool) (*measurement, error) {
	m := &measurement{}
	start := time.Now()
	for i := 0; ; i++ {
		if i > 0 {
			el := time.Since(start).Seconds()
			if el+el/float64(i)/2 > seconds {
				break
			}
		}
		modes := []bool{false}
		if traced {
			modes = append(modes, true)
		}
		for _, profiled := range modes {
			p, err := b.runPass(i%subSeeds, profiled)
			if err != nil {
				return nil, err
			}
			fmt.Fprintf(os.Stderr, "perfbench: pass %d (profiled %v): %.3f s CPU\n", i, profiled, p.cpuS)
			m.passes = append(m.passes, p)
		}
	}
	return m, nil
}

var allocMetrics = []string{"/gc/heap/allocs:bytes", "/gc/heap/allocs:objects", "/gc/cycles/total:gc-cycles"}

func readAlloc() [3]uint64 {
	s := make([]metrics.Sample, len(allocMetrics))
	for i, n := range allocMetrics {
		s[i].Name = n
	}
	metrics.Read(s)
	var out [3]uint64
	for i := range s {
		out[i] = s[i].Value.Uint64()
	}
	return out
}

// rusageThread is Linux's RUSAGE_THREAD.
const rusageThread = 1

// threadCPU is the calling thread's CPU time.
func threadCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(rusageThread, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

// processCPU is the process's CPU time, all threads included.
func processCPU() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()).Seconds()
}

func (b *bench) runPass(sub int, traced bool) (pass, error) {
	pts, err := b.buildPoints()
	if err != nil {
		return pass{}, err
	}
	p := pass{traced: traced}
	var prof bytes.Buffer
	if traced {
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return pass{}, err
		}
	}
	if err := resetPeakRSS(); err != nil {
		return pass{}, err
	}
	alloc0, cpu0 := readAlloc(), processCPU()
	for _, pt := range pts {
		seed := pointSeed(b.seed, sub, pt.slot)
		row, s := b.runPoint(pt, seed)
		p.pointCPU = append(p.pointCPU, s)
		if row != nil {
			p.counts.add(b.wl.counts(row))
		}
	}
	p.cpuS = processCPU() - cpu0
	if p.rssMB, err = peakRSSMB(); err != nil {
		return pass{}, err
	}
	alloc1 := readAlloc()
	for i := range alloc1 {
		p.alloc[i] = alloc1[i] - alloc0[i]
	}
	if traced {
		pprof.StopCPUProfile()
		samples, err := parseProfile(prof.Bytes())
		if err != nil {
			return pass{}, err
		}
		if p.split, err = splitByLayer(samples); err != nil {
			return pass{}, err
		}
	}
	return p, nil
}

// endToEndMetrics are the metrics a user of the simulator sees.
func (m *measurement) endToEndMetrics(b *bench, setupS float64) map[string]metric {
	var completed uint64
	var pointsCPU float64
	var cpu, rss []float64
	perPoint := make([][]float64, len(m.passes[0].pointCPU))
	for _, p := range m.passes {
		completed += p.counts.completed
		pointsCPU += sum(p.pointCPU)
		cpu = append(cpu, p.cpuS)
		rss = append(rss, p.rssMB)
		for i, s := range p.pointCPU {
			perPoint[i] = append(perPoint[i], s)
		}
	}
	var slowest float64
	for _, times := range perPoint {
		slowest = math.Max(slowest, median(times))
	}
	return map[string]metric{
		"sim_rpcs_per_s": {float64(completed) / pointsCPU, "1/s"},
		"cpu_s":          {median(cpu), "s"},
		"point_s_max":    {slowest, "s"},
		"peak_rss_mb":    {median(rss), "MB"},
		"setup_s":        {setupS, "s"},
		"ok_frac":        {float64(b.attempted-b.failed) / float64(b.attempted), "frac"},
	}
}

// layerMetrics are the per-layer metrics of a traced run: the CPU
// profile folded by layer (per traced pass), allocation from
// runtime/metrics and the deterministic counts (per untraced pass), and
// the benchmark's own spans.
func (m *measurement) layerMetrics(b *bench) (map[string]metric, error) {
	out := map[string]metric{}
	var traced, untraced []pass
	for _, p := range m.passes {
		if p.traced {
			traced = append(traced, p)
		} else {
			untraced = append(untraced, p)
		}
	}
	if len(traced) == 0 || len(untraced) == 0 {
		return nil, errors.New("traced run measured no pass pair")
	}
	n := float64(len(traced))
	self := map[string]float64{}
	var cross layerSplit
	var tracedCPU, untracedCPU float64
	for _, p := range traced {
		for l, s := range p.split.self {
			self[l] += s
		}
		cross.copy += p.split.copy
		cross.malloc += p.split.malloc
		cross.crypto += p.split.crypto
		tracedCPU += sum(p.pointCPU)
	}
	for _, l := range layerNames() {
		out[l+".cpu_s"] = metric{self[l] / n, "s"}
	}
	out["runtime.gc_cpu_s"] = metric{self[gcLayer] / n, "s"}
	out["runtime.copy_cpu_s"] = metric{cross.copy / n, "s"}
	out["runtime.malloc_cpu_s"] = metric{cross.malloc / n, "s"}
	out["crypto.cpu_s"] = metric{cross.crypto / n, "s"}

	var allocB, allocO, gcs, completed, drops, est, hsFail []float64
	var hits, lookups uint64
	for _, p := range untraced {
		untracedCPU += sum(p.pointCPU)
		allocB = append(allocB, float64(p.alloc[0]))
		allocO = append(allocO, float64(p.alloc[1]))
		gcs = append(gcs, float64(p.alloc[2]))
		completed = append(completed, float64(p.counts.completed))
		drops = append(drops, float64(p.counts.drops))
		est = append(est, float64(p.counts.established))
		hsFail = append(hsFail, float64(p.counts.hsFailed))
		hits += p.counts.ticketHits
		lookups += p.counts.ticketHits + p.counts.ticketMiss
	}
	out["runtime.alloc_mb"] = metric{median(allocB) / (1 << 20), "MB"}
	out["runtime.alloc_objects"] = metric{median(allocO), "count"}
	out["runtime.gc_cycles"] = metric{median(gcs), "count"}
	out["runtime.alloc_bytes_per_rpc"] = metric{median(allocB) / math.Max(1, median(completed)), "B"}
	out["rpc.completed"] = metric{median(completed), "count"}
	out["netsim.switch_drops"] = metric{median(drops), "count"}
	out["handshake.established"] = metric{median(est), "count"}
	out["handshake.failed"] = metric{median(hsFail), "count"}
	hitRate := 0.0
	if lookups > 0 {
		hitRate = float64(hits) / float64(lookups)
	}
	out["dcdns.ticket_hit_rate"] = metric{hitRate, "frac"}
	out["experiments.build_s"] = metric{median(b.buildSpans), "s"}
	out["experiments.point_s"] = metric{median(b.pointSpans), "s"}
	out["trace.overhead"] = metric{tracedCPU / untracedCPU, "ratio"}
	return out, nil
}

// resetPeakRSS restarts the kernel's peak-RSS counter (VmHWM) at the
// current resident set, so each pass reports its own peak.
func resetPeakRSS() error {
	return os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMB reads the peak resident set since the last resetPeakRSS.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(v), "%g kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", v, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc/self/status")
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// stamp describes the machine and build a result came from.
func stamp(workload string, seed int64, seconds float64, trace int) map[string]any {
	gogc := os.Getenv("GOGC")
	if gogc == "" {
		gogc = "100"
	}
	return map[string]any{
		"workload":      workload,
		"seed":          seed,
		"seconds":       seconds,
		"trace":         trace,
		"nproc":         runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"cpu_model":     cpuModel(),
		"go_version":    runtime.Version(),
		"gogc":          gogc,
		"commit":        commit,
		"source_digest": sourceDigest,
	}
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// captureGolden runs every workload's points on the reference seed's
// sub-seeds and writes their rows: the reference the output check
// compares against. Run it only on a commit whose simulated results are
// meant to be the fixed point.
func captureGolden(path string) error {
	var buf bytes.Buffer
	fmt.Fprintf(&buf, `{"ref_seed": %d, "subs": %d, "rows": {`, refSeed, subSeeds)
	for i, wl := range workloads {
		pts, err := wl.points()
		if err != nil {
			return err
		}
		rows := map[string]json.RawMessage{}
		for sub := 0; sub < subSeeds; sub++ {
			for _, p := range pts {
				seed := pointSeed(refSeed, sub, p.slot)
				row, err := p.run(seed)
				if err == nil {
					err = wl.check(row)
				}
				if err != nil {
					return fmt.Errorf("%s %s seed %d: %w", wl.name, p.key, seed, err)
				}
				if rows[goldenKey(p.key, seed)], err = json.Marshal(row); err != nil {
					return err
				}
			}
		}
		// One row per line, so a deliberate change reads as a line diff.
		keys := make([]string, 0, len(rows))
		for k := range rows {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		fmt.Fprintf(&buf, "%s\n %q: {", sep(i), wl.name)
		for j, k := range keys {
			fmt.Fprintf(&buf, "%s\n  %q: %s", sep(j), k, rows[k])
		}
		buf.WriteString("\n }")
	}
	buf.WriteString("\n}}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func sep(i int) string {
	if i == 0 {
		return ""
	}
	return ","
}
