// Command perfbench measures what one bottleneck packet costs the TAQ
// reproduction on four paper workloads, end to end and per layer.
//
// Each run builds a workload from its seed and replays it, repetition
// after repetition, until the requested seconds of timed work have
// passed. With -trace 0 it reports end-to-end metrics from untimed
// set-up and untraced timed phases; with -trace 1 every other
// repetition is traced (spans around the benchmark's calls into the
// program, a CPU profile and a heap profile folded by layer) and it
// reports per-layer metrics. The last line of standard output is a JSON
// object; see README.md for the metrics and workloads.
package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload name: "+strings.Join(workloadNames(), ", "))
	seed := fs.Int64("seed", 1, "seed the workload's inputs are made from")
	seconds := fs.Float64("seconds", 10, "timed work to measure, in seconds")
	traceFlag := fs.Int("trace", 0, "1 runs the traced, per-layer measurement")
	out := fs.String("out", ".bench_build", "directory for the traced run's span dump")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	w, ok := findWorkload(*name)
	if !ok || *seconds <= 0 || (*traceFlag != 0 && *traceFlag != 1) {
		fmt.Fprintf(stderr, "perfbench: need -workload in {%s}, -seconds > 0 and -trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg := runConfig{w: w, seed: *seed, seconds: *seconds, traced: *traceFlag == 1}
	res, err := measure(cfg)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	r := res.result(cfg.traced)
	fmt.Fprintln(stdout, hostLine())
	res.report(stdout)
	if cfg.traced {
		res.tr.summary(stdout)
		if err := writeSpans(*out, cfg, res.tr); err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
	}
	line, err := json.Marshal(r)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(line))
	return 0
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}

type runConfig struct {
	w       workloadDef
	seed    int64
	seconds float64
	traced  bool
}

// variants is how many scenarios a run cycles through: repetition k
// runs the workload at seed variantSeed(seed, k%variants), and a run
// always ends on a whole cycle. One seed's dynamics can make its
// packets 25% dearer than another's; a run that averages over several
// scenarios varies less from one --seed to the next.
const variants = 4

func variantSeed(seed int64, v int) int64 { return seed*variants + int64(v) }

// tracedMemRate is the heap-profile sampling rate of traced
// repetitions: one sample per 32 KiB allocated on average, which keeps
// the profiler's own cost within the run-to-run noise of pkt_rate.
const tracedMemRate = 32 << 10

// measurement is what a run collected across its repetitions. It keeps
// a few numbers per repetition rather than samples, so its own heap
// does not grow and change the garbage collector's pacing as a run goes
// on.
type measurement struct {
	tr       *tracer
	attempts int
	failures []string

	// Untraced repetitions, one value each.
	pktRate, allocs, allocBytes, liveHeap, setup, gcCycles []float64
	stepP50, stepP99                                       []float64 // ns
	stepCount                                              int

	// Traced repetitions.
	tracedRate []float64
	tracedPkts float64
	cpu        map[string]float64 // ns
	allocObjs  map[string]float64
	spanTotals map[string][]float64 // per repetition
	coreLive   []float64            // core bytes in use per tracked flow
	// outcomes holds each scenario's first outcome, which every later
	// repetition of that scenario must match.
	outcomes [variants]outcome

	stepBuf []float64 // reused by every repetition
	frames  frameCache
}

func newMeasurement() *measurement {
	return &measurement{
		tr:         newTracer(),
		cpu:        map[string]float64{},
		allocObjs:  map[string]float64{},
		spanTotals: map[string][]float64{},
		frames:     frameCache{},
	}
}

// measure repeats whole cycles of the workload's scenarios until
// cfg.seconds of timed work are done. A traced run makes at least two
// cycles and traces every other one, so its traced and untraced
// repetitions cover the same scenarios.
func measure(cfg runConfig) (*measurement, error) {
	m := newMeasurement()
	minCycles := 1
	if cfg.traced {
		minCycles = 2
	}
	var timed time.Duration
	for cycle := 0; timed.Seconds() < cfg.seconds || cycle < minCycles; cycle++ {
		for v := 0; v < variants; v++ {
			elapsed, err := m.rep(cfg, cycle*variants+v, cfg.traced && cycle%2 == 1)
			if err != nil {
				return nil, err
			}
			timed += elapsed
		}
	}
	return m, nil
}

// rep builds the workload afresh and runs it once: set-up, then the
// timed phase, then the read-out and its checks. It returns the wall
// time of the timed phase. A failed check is recorded in m; an error
// means the run cannot go on.
//
// Set-up time and pkt_rate are measured in CPU time of the benchmark's
// thread, which runs the whole simulation, so that time the hypervisor
// gives to other guests does not count. Step latencies are wall time.
func (m *measurement) rep(cfg runConfig, rep int, traced bool) (time.Duration, error) {
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	defaultMemRate := runtime.MemProfileRate
	defer func() { runtime.MemProfileRate = defaultMemRate }()
	if traced {
		runtime.MemProfileRate = tracedMemRate
	}
	m.tr.on = traced
	firstSpan := len(m.tr.spans)
	var clockErr error
	cpuNow := func() time.Duration {
		t, err := threadCPU()
		if clockErr == nil {
			clockErr = err
		}
		return t
	}

	runtime.GC()
	c0 := cpuNow()
	variant := rep % variants
	build := cfg.w.gen(variantSeed(cfg.seed, variant), m.tr)
	setup := cpuNow() - c0
	var ms runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&ms)
	baseHeap := ms.HeapAlloc
	c1 := cpuNow()
	inst, err := build(m.tr)
	setup += cpuNow() - c1
	if err != nil {
		return 0, fmt.Errorf("set-up: %w", err)
	}
	if n := inst.numSteps(); cap(m.stepBuf) < n {
		m.stepBuf = make([]float64, 0, n)
	}
	steps := m.stepBuf[:0]

	runtime.GC()
	var before map[memStack]memCounts
	var cpuProf bytes.Buffer
	if traced {
		before = memSnapshot()
		if err := pprof.StartCPUProfile(&cpuProf); err != nil {
			return 0, fmt.Errorf("cpu profile: %w", err)
		}
	}
	runtime.ReadMemStats(&ms)
	mallocs, total, numGC := ms.Mallocs, ms.TotalAlloc, ms.NumGC

	c2 := cpuNow()
	start := time.Now()
	prev := start
	for more := true; more; {
		more = inst.step()
		now := time.Now()
		steps = append(steps, float64(now.Sub(prev)))
		prev = now
	}
	busy := cpuNow() - c2
	elapsed := prev.Sub(start)

	runtime.ReadMemStats(&ms)
	mallocs, total, numGC = ms.Mallocs-mallocs, ms.TotalAlloc-total, ms.NumGC-numGC
	if traced {
		pprof.StopCPUProfile()
	}
	runtime.GC()
	runtime.ReadMemStats(&ms)
	live := float64(ms.HeapAlloc) - float64(baseHeap)
	var mem memFold
	if traced {
		mem = foldMem(before, memSnapshot(), tracedMemRate, &m.frames)
	}
	if clockErr != nil {
		return 0, clockErr
	}

	pkts := float64(inst.offered())
	if pkts == 0 {
		return 0, errors.New("the workload offered no packets")
	}
	o, cerr := inst.finish(m.tr)
	m.attempts++
	first := &m.outcomes[variant]
	switch {
	case cerr != nil:
		m.failures = append(m.failures, fmt.Sprintf("rep %d: %v", rep, cerr))
	case first.digest == "":
		*first = o
	case o.digest != first.digest:
		m.failures = append(m.failures, fmt.Sprintf("rep %d: digest %s differs from %s at the same seed", rep, o.digest, first.digest))
	}
	rate := pkts / busy.Seconds()

	sort.Float64s(steps)
	p50, _ := percentile(steps, 50)
	p99, ok := percentile(steps, 99)
	if !ok {
		m.failures = append(m.failures, fmt.Sprintf("rep %d: %d steps are too few for a p99", rep, len(steps)))
	}
	if !traced {
		m.pktRate = append(m.pktRate, rate)
		m.allocs = append(m.allocs, float64(mallocs)/pkts)
		m.allocBytes = append(m.allocBytes, float64(total)/pkts)
		m.liveHeap = append(m.liveHeap, live)
		m.setup = append(m.setup, setup.Seconds())
		m.gcCycles = append(m.gcCycles, float64(numGC))
		m.stepP50 = append(m.stepP50, p50)
		m.stepP99 = append(m.stepP99, p99)
		m.stepCount = len(steps)
		return elapsed, nil
	}
	cpu, err := foldCPU(cpuProf.Bytes())
	if err != nil {
		return 0, err
	}
	for k, v := range cpu {
		m.cpu[k] += v
	}
	for k, v := range mem.allocObjs {
		m.allocObjs[k] += v
	}
	if o.trackedFlows > 0 {
		m.coreLive = append(m.coreLive, mem.inuseBytes["core"]/float64(o.trackedFlows))
	}
	m.tracedPkts += pkts
	m.tracedRate = append(m.tracedRate, rate)
	for k, v := range m.tr.totals(firstSpan) {
		m.spanTotals[k] = append(m.spanTotals[k], v)
	}
	m.tr.runs = append(m.tr.runs, stepSummary{Rep: rep, Name: "topology.Run", Count: len(steps),
		MeanNs: float64(elapsed) / float64(len(steps)), P50Ns: p50, P99Ns: p99})
	return elapsed, nil
}

// digest combines the scenarios' digests: the run's simulated outputs.
func (m *measurement) digest() string {
	h := sha256.New()
	for _, o := range m.outcomes {
		fmt.Fprintln(h, o.digest)
	}
	return fmt.Sprintf("%x", h.Sum(nil)[:12])
}

// report prints the human-readable lines that precede the JSON result.
func (m *measurement) report(w io.Writer) {
	fmt.Fprintf(w, "reps=%d failed=%d digest=%s\n", m.attempts, len(m.failures), m.digest())
	for v, o := range m.outcomes {
		fmt.Fprintf(w, "outcome scenario=%d digest=%s %s\n", v, o.digest, o.summary)
	}
	for _, f := range m.failures {
		fmt.Fprintf(w, "FAILED %s\n", f)
	}
	fmt.Fprintf(w, "steps per rep n=%d (a percentile needs >= %d samples above it)\n", m.stepCount, minBeyond)
	fmt.Fprintf(w, "pkt_rate per untraced rep: %.0f\n", m.pktRate)
	if len(m.tracedRate) > 0 {
		fmt.Fprintf(w, "pkt_rate per traced rep: %.0f\n", m.tracedRate)
	}
	if len(m.cpu) > 0 {
		keys := make([]string, 0, len(m.cpu))
		for k := range m.cpu {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			fmt.Fprintf(w, "fold %-12s cpu_ns_per_pkt=%.1f allocs_per_pkt=%.4f\n",
				k, m.cpu[k]/m.tracedPkts, m.allocObjs[k]/m.tracedPkts)
		}
	}
}

// metric is one named value of the JSON result.
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

// result assembles the JSON result.
func (m *measurement) result(traced bool) result {
	defs, values := endToEnd, m.endToEndValues()
	if traced {
		defs, values = perLayer, m.perLayerValues()
	}
	r := result{
		Correct:   len(m.failures) == 0,
		Attempted: m.attempts,
		Failed:    len(m.failures),
		Metrics:   map[string]metric{},
	}
	for _, d := range defs {
		r.Metrics[d.name] = metric{Value: values[d.name], Unit: d.unit}
	}
	return r
}

func (m *measurement) endToEndValues() map[string]float64 {
	return map[string]float64{
		"pkt_rate":            median(m.pktRate),
		"allocs_per_pkt":      median(m.allocs),
		"alloc_bytes_per_pkt": median(m.allocBytes),
		"live_heap_bytes":     median(m.liveHeap),
		"setup_s":             median(m.setup),
	}
}

func (m *measurement) perLayerValues() map[string]float64 {
	v := map[string]float64{}
	// The workload's own read-outs are averaged over the scenarios.
	for _, o := range m.outcomes {
		for k, x := range o.layer {
			v[k] += x / variants
		}
	}
	for _, l := range layers {
		v[l+".cpu_ns_per_pkt"] = m.cpu[l] / m.tracedPkts
		v[l+".allocs_per_pkt"] = m.allocObjs[l] / m.tracedPkts
	}
	v["runtime.gc.cpu_ns_per_pkt"] = m.cpu[gcBucket] / m.tracedPkts
	v["bench.cpu_ns_per_pkt"] = m.cpu[benchBucket] / m.tracedPkts
	v["runtime.gc_cycles"] = median(m.gcCycles)
	v["step_p50_us"] = median(m.stepP50) / 1e3
	v["step_p99_us"] = median(m.stepP99) / 1e3
	v["core.live_bytes_per_flow"] = median(m.coreLive)

	span := func(names ...string) float64 {
		var per []float64
		for i := range m.tracedRate {
			var sum float64
			for _, n := range names {
				if xs := m.spanTotals[n]; i < len(xs) {
					sum += xs[i]
				}
			}
			per = append(per, sum)
		}
		return median(per)
	}
	v["topology.build_ns"] = span("topology.New", "topology.AddFlow", "topology.EnableMetrics")
	v["trace.generate_ns"] = span("trace.Generate")
	v["workload.replay_ns"] = span("workload.Replay")
	v["obs.snapshot_ns"] = span("obs.Snapshot")
	v["obs.prom_encode_ns"] = span("obs.AppendText")
	v["metrics.readout_ns"] = span("metrics.MeanSliceJFI")

	untraced, traced := median(m.pktRate), median(m.tracedRate)
	v["bench.pkt_rate_untraced"] = untraced
	v["bench.pkt_rate_traced"] = traced
	v["bench.trace_slowdown"] = untraced / traced
	return v
}

// hostLine describes the machine a result was measured on.
func hostLine() string {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, l := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	return fmt.Sprintf("host cpu=%q nproc=%d gomaxprocs=%d go=%s",
		model, runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version())
}

func writeSpans(dir string, cfg runConfig, tr *tracer) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%s-seed%d.jsonl", cfg.w.name, cfg.seed))
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	if err := tr.dump(f); err != nil {
		f.Close()
		return fmt.Errorf("span dump: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span dump: %w", err)
	}
	return nil
}
