// Command layerbench is the repository's benchmark. It drives the public
// entry points of each module from outside — scenario.Parse, the graph
// corpus, scenario.Expand, sweep.Run, Batch.Check, scenario.Render, and
// serve.Server behind a loopback listener — times each call, checks every
// output, and prints one JSON result line:
//
//	bash layerbench/run.sh --workload lift-matching --seed 1 --seconds 20 --trace 0
//
// An untraced run (--trace 0) prints the end-to-end metrics. A traced run
// (--trace 1) alternates untraced and traced passes: the traced ones keep
// spans in memory, take a CPU profile and report per-layer metrics, and the
// difference between the two kinds of pass is reported as tracing overhead.
// The spans are written to the -spans directory at exit.
package main

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strconv"
	"time"
)

// processStart approximates the process's start: setup_s runs from here
// to the end of the warm-up pass.
var processStart = time.Now()

type config struct {
	workload string
	seed     int64
	seconds  int
	trace    bool
	spans    string
	// childSetups is the number of extra processes that set the workload
	// up, each timing its own set-up, so setup_s is a median over fresh
	// processes: work moved into process-global state still shows in it.
	childSetups int
}

// setupResult is what a -setup-only process reports.
type setupResult struct {
	SetupS    float64 `json:"setup_s"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
}

// passResult is one pass of a workload: its wall time, the latency of each
// user-facing operation in it (a request; on a batch workload, the pass
// itself), its checks, and on traced passes its per-layer metrics.
type passResult struct {
	wall        time.Duration
	ops         []float64
	hits, colds []float64 // serve-mixed request latencies by cache outcome
	peakHeapMB  float64   // largest live heap during the pass, untraced passes only
	attempted   int
	failed      int
	firstErrs   []error
	layer       map[string]float64
}

// fail counts a failed operation and keeps the first few for stderr.
func (p *passResult) fail(err error) {
	p.failed++
	if len(p.firstErrs) < 5 {
		p.firstErrs = append(p.firstErrs, err)
	}
}

type runner interface {
	// pass runs one unit of the workload; tr is nil on untraced passes.
	pass(tr *tracer) (*passResult, error)
	close() error
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// values holds every metric computed, traced or not; Metrics is the
	// subset the run's mode prints.
	values map[string]float64
	// notes are printed before the result line.
	notes []string
}

func main() {
	var cfg config
	flag.StringVar(&cfg.workload, "workload", "", "workload name: lift-matching, mis-core or serve-mixed")
	flag.Int64Var(&cfg.seed, "seed", 1, "workload seed; seed s runs the specs at seed offset s-1, as localbench -seed s does")
	flag.IntVar(&cfg.seconds, "seconds", 20, "how long the timed passes run")
	trace := flag.Int("trace", 0, "1 for a traced run that reports per-layer metrics")
	flag.StringVar(&cfg.spans, "spans", filepath.Join(".bench_build", "layerbench-spans"), "directory a traced run writes its spans to")
	setupOnly := flag.Bool("setup-only", false, "set the workload up, run the warm-up pass, print the set-up time and exit (the benchmark starts itself this way)")
	flag.Parse()
	cfg.trace = *trace == 1
	cfg.childSetups = 2

	if *setupOnly {
		res, err := setUpOnce(cfg)
		if err == nil {
			err = json.NewEncoder(os.Stdout).Encode(res)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, "layerbench:", err)
			os.Exit(1)
		}
		return
	}
	rep, err := run(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
	for _, n := range rep.notes {
		fmt.Println(n)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(os.Stderr, "layerbench:", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

func newRunner(w *workload, seed int64) (runner, error) {
	if w.offsets == 0 {
		return newServeRunner(w, seed)
	}
	return newBatchRunner(w, seed)
}

// setUp builds the workload's runner and runs its warm-up pass: set-up
// includes parsing, priming and one full first pass.
func setUp(cfg config) (*workload, runner, *passResult, error) {
	watchHeap()
	w, err := findWorkload(cfg.workload)
	if err != nil {
		return nil, nil, nil, err
	}
	r, err := newRunner(w, cfg.seed)
	if err != nil {
		return nil, nil, nil, err
	}
	warm, err := r.pass(nil)
	if err != nil {
		r.close()
		return nil, nil, nil, err
	}
	return w, r, warm, nil
}

func setUpOnce(cfg config) (setupResult, error) {
	_, r, warm, err := setUp(cfg)
	if err != nil {
		return setupResult{}, err
	}
	res := setupResult{SetupS: time.Since(processStart).Seconds(), Attempted: warm.attempted, Failed: warm.failed}
	for _, e := range warm.firstErrs {
		fmt.Fprintln(os.Stderr, "layerbench: check failed:", e)
	}
	return res, r.close()
}

// childSetUp runs a -setup-only copy of this process and waits for it.
func childSetUp(cfg config) (setupResult, error) {
	var res setupResult
	exe, err := os.Executable()
	if err != nil {
		return res, err
	}
	cmd := exec.Command(exe, "-workload", cfg.workload, "-seed", strconv.FormatInt(cfg.seed, 10), "-setup-only")
	cmd.Stderr = os.Stderr
	out, err := cmd.Output()
	if err != nil {
		return res, fmt.Errorf("set-up process: %w", err)
	}
	if err := json.Unmarshal(out, &res); err != nil {
		return res, fmt.Errorf("set-up process: %w", err)
	}
	return res, nil
}

// run sets the workload up, runs its warm-up pass, then the timed passes,
// and assembles the report.
func run(cfg config) (*report, error) {
	w, r, warm, err := setUp(cfg)
	if err != nil {
		return nil, err
	}
	defer func() {
		if err := r.close(); err != nil {
			fmt.Fprintln(os.Stderr, "layerbench: closing:", err)
		}
	}()

	rep := &report{values: map[string]float64{}}
	all := []*passResult{warm}
	setups := []float64{time.Since(processStart).Seconds()}
	for range cfg.childSetups {
		c, err := childSetUp(cfg)
		if err != nil {
			return nil, err
		}
		setups = append(setups, c.SetupS)
		all = append(all, &passResult{attempted: c.Attempted, failed: c.Failed})
	}
	rep.values["setup_s"] = median(setups)

	// The number of timed passes is fixed from the warm-up, so a run's
	// length tracks --seconds without a pass count that flips from run to
	// run on a deadline.
	n := max(1, int(math.Round(float64(cfg.seconds)/warm.wall.Seconds())))
	if cfg.trace {
		n = max(2, n)
	}
	var tr *tracer
	var fold *cpuFold
	if cfg.trace {
		tr, fold = newTracer(), newCPUFold()
	}
	var plain, traced []*passResult
	for i := 0; i < n; i++ {
		if cfg.trace && i%2 == 1 {
			p, err := tracedPass(r, tr, fold)
			if err != nil {
				return nil, err
			}
			traced = append(traced, p)
			all = append(all, p)
			continue
		}
		resetHeapPeak()
		p, err := r.pass(nil)
		if err != nil {
			return nil, err
		}
		p.peakHeapMB = heapPeakMB()
		plain = append(plain, p)
		all = append(all, p)
	}

	plainValues(rep, plain)
	for _, p := range all {
		rep.Attempted += p.attempted
		rep.Failed += p.failed
		for _, e := range p.firstErrs {
			fmt.Fprintln(os.Stderr, "layerbench: check failed:", e)
		}
	}
	rep.Correct = rep.Failed == 0
	rep.Metrics = rep.selectMetrics(endToEnd)
	if cfg.trace {
		perLayerValues(rep, traced, tr, fold)
		path := filepath.Join(cfg.spans, fmt.Sprintf("%s-seed%d.spans.json", w.name, cfg.seed))
		if err := tr.write(path); err != nil {
			return nil, err
		}
		rep.Metrics = rep.selectMetrics(perLayer)
	}
	return rep, nil
}

// selectMetrics returns the named metrics with their units.
func (rep *report) selectMetrics(defs []metricDef) map[string]metric {
	out := make(map[string]metric, len(defs))
	for _, d := range defs {
		out[d.name] = metric{Value: rep.values[d.name], Unit: d.unit}
	}
	return out
}

// tracedPass runs one pass under the tracer and a CPU profile, and adds the
// runtime's allocation and GC counts for the pass to its layer metrics.
func tracedPass(r runner, tr *tracer, fold *cpuFold) (*passResult, error) {
	var prof bytes.Buffer
	if err := pprof.StartCPUProfile(&prof); err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	p, err := r.pass(tr)
	runtime.ReadMemStats(&m1)
	pprof.StopCPUProfile()
	if err != nil {
		return nil, err
	}
	if err := fold.add(prof.Bytes()); err != nil {
		return nil, err
	}
	if p.layer == nil {
		p.layer = map[string]float64{}
	}
	p.layer["runtime.alloc_bytes"] = float64(m1.TotalAlloc - m0.TotalAlloc)
	p.layer["runtime.alloc_objects"] = float64(m1.Mallocs - m0.Mallocs)
	p.layer["runtime.gc_cycles"] = float64(m1.NumGC - m0.NumGC)
	p.layer["runtime.gc_pause_ms"] = float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6
	return p, nil
}

// plainValues fills the untraced metrics from the plain (untraced) timed
// passes, and the serve-mixed latency split with its sample counts.
func plainValues(rep *report, plain []*passResult) {
	var walls, heaps, ops, hits, colds []float64
	var wall time.Duration
	for _, p := range plain {
		walls = append(walls, p.wall.Seconds())
		heaps = append(heaps, p.peakHeapMB)
		ops = append(ops, p.ops...)
		hits = append(hits, p.hits...)
		colds = append(colds, p.colds...)
		wall += p.wall
	}
	rep.values["batch_s"] = median(walls)
	rep.values["op_p50_ms"] = median(ops)
	rep.values["peak_heap_mb"] = median(heaps)
	rep.notes = append(rep.notes, fmt.Sprintf("%d timed passes (%.3g s); op_p50_ms over %d operations", len(plain), walls, len(ops)))
	if len(hits)+len(colds) == 0 {
		return
	}
	rep.values["serve.req_per_s"] = float64(len(ops)) / wall.Seconds()
	rep.values["serve.run_hit_p50_ms"] = median(hits)
	rep.values["serve.run_hit_p99_ms"] = quantile(hits, 0.99)
	rep.values["serve.run_cold_p50_ms"] = median(colds)
	rep.values["serve.run_cold_p90_ms"] = quantile(colds, 0.90)
	rep.values["serve.hit_n"] = float64(len(hits))
	rep.values["serve.cold_n"] = float64(len(colds))
	rep.values["serve.hit_ratio"] = float64(len(hits)) / float64(len(ops))
	rep.notes = append(rep.notes, fmt.Sprintf("serve: %d hits (%d beyond p99), %d colds (%d beyond p90), %.3f hit ratio, %.1f req/s",
		len(hits), beyond(hits, 0.99), len(colds), beyond(colds, 0.90), rep.values["serve.hit_ratio"], rep.values["serve.req_per_s"]))
}

// perLayerValues fills the traced metrics: medians of the traced passes'
// layer metrics, the CPU fold, the failure fraction and tracing overhead.
func perLayerValues(rep *report, traced []*passResult, tr *tracer, fold *cpuFold) {
	var layers []map[string]float64
	var walls, ops []float64
	for _, p := range traced {
		layers = append(layers, p.layer)
		walls = append(walls, p.wall.Seconds())
		ops = append(ops, p.ops...)
	}
	for k, v := range medians(layers) {
		rep.values[k] = v
	}
	rep.values["cpu.samples"] = float64(fold.samples)
	for _, b := range cpuBuckets {
		rep.values["cpu."+b+"_frac"] = fold.frac(b)
	}
	rep.values["fail_frac"] = float64(rep.Failed) / float64(rep.Attempted)
	rep.values["trace.overhead_batch_s"] = median(walls) - rep.values["batch_s"]
	rep.values["trace.overhead_op_p50_ms"] = median(ops) - rep.values["op_p50_ms"]
	rep.values["trace.spans"] = float64(tr.count())
}
