// Command localbench runs a directory of declarative scenario specs (see
// internal/scenario) and prints one markdown table per spec. The default
// directory, scenarios/paper, is the measured counterpart of every Table 1
// row and corollary of Korman–Sereni–Viennot: each spec pairs a non-uniform
// baseline, given the graph's true parameters, with the uniform algorithm
// the paper's transformers produce, and the table reports both round counts
// and their ratio. EXPERIMENTS.md and BENCH.json are built from this output.
//
// Usage:
//
//	localbench [-scenarios dir] [-exp name] [-seed N] [-parallel N]
//	           [-workers N] [-json path] [-corpus-dir dir]
//	           [-cpuprofile path] [-memprofile path]
//	localbench -pgo default.pgo [-pgo-iters N] [-scenarios dir] [...]
//
// Every spec is validated, expanded into sweep jobs and executed through
// serve.Execute, the same request→document path cmd/localserved serves, so
// a served response is byte-identical to this command's output for the
// same spec. -exp runs the single spec of that name, and -seed shifts every
// spec's seed grid by N-1 (-seed 1, the default, runs the corpus exactly as
// committed). The output contains only deterministic fields, so it is
// byte-identical for every -parallel and -workers value; CI diffs a
// sequential against a fully parallel run.
//
// With -corpus-dir, the graph corpus is backed by the content-addressed CSR
// image store in that directory (the same format cmd/graphgen -store writes
// and localserved/localsweepd consume): graphs whose image exists load from
// disk instead of regenerating, and freshly generated graphs persist their
// image for the next run or replica. The output is byte-identical either
// way — the store only changes where the CSR bytes come from.
//
// With -json, a machine-readable result set (schema documented in
// EXPERIMENTS.md) is additionally written to the given path: one record per
// job with its node steps, wall time and engine allocations, the sweep and
// instruction-budget blocks, and the corpus cold/warm block — the largest
// paper family generated from scratch versus loaded from its CSR image (see
// internal/benchfmt.CorpusBench), measured in -corpus-dir when set or a
// throwaway store otherwise. The committed BENCH.json at the repo root
// tracks the perf trajectory across PRs and is guarded by cmd/benchguard in
// CI. The profile flags capture standard pprof profiles of the whole run.
//
// With -pgo, the expanded batch is executed repeatedly under a CPU profile
// written to the given path — the representative workload profile
// committed as default.pgo next to each main package, which makes every
// plain `go build` profile-guided (see DESIGN.md §2.13 and `make pgo`).
// The mode exists to produce one artifact, the profile: tables and -json
// output are suppressed, and -cpuprofile is rejected (both flags would
// start the same profiler).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"strings"
	"time"

	"github.com/unilocal/unilocal/internal/benchfmt"
	"github.com/unilocal/unilocal/internal/cliutil"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/serve"
	"github.com/unilocal/unilocal/internal/sweep"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "localbench:", err)
		os.Exit(1)
	}
}

var (
	flagExp      = flag.String("exp", "all", "run only the scenario with this name, or 'all'")
	flagScen     = flag.String("scenarios", "scenarios/paper", "scenario corpus directory")
	flagSeed     = flag.Int64("seed", 1, "simulation seed: shifts every spec's seed grid by N-1")
	flagParallel = flag.Int("parallel", 1, "simulations in flight (0 = GOMAXPROCS); output is byte-identical for any value")
	flagWorkers  = flag.Int("workers", 0, "engine worker count per simulation (0 = auto, 1 = sequential)")
	flagJSON     = flag.String("json", "", "write machine-readable results to this path")
	flagCorpus   = flag.String("corpus-dir", "", "content-addressed CSR image store directory backing the graph corpus (shared with graphgen -store and localserved -corpus-dir)")
	flagCPU      = flag.String("cpuprofile", "", "write a CPU profile to this path")
	flagMem      = flag.String("memprofile", "", "write a heap profile to this path")
	flagPGO      = flag.String("pgo", "", "run the batch repeatedly under a CPU profile and write it to this path (the default.pgo workflow); suppresses all other output")
	flagPGOIters = flag.Int("pgo-iters", 3, "batch repetitions under -pgo (more = smoother profile)")
)

func run() error {
	flag.Parse()
	if *flagCPU != "" {
		if *flagPGO != "" {
			return fmt.Errorf("-pgo and -cpuprofile both start the CPU profiler; use one")
		}
		f, err := os.Create(*flagCPU)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	specs, err := loadSpecs()
	if err != nil {
		return err
	}
	corpus := graph.NewCorpus()
	if *flagCorpus != "" {
		store, err := graph.OpenStore(*flagCorpus)
		if err != nil {
			return err
		}
		corpus.AttachStore(store)
	}
	if *flagPGO != "" {
		return runPGO(specs, corpus)
	}
	out, err := serve.Execute(specs, serve.ExecOptions{
		Corpus:        corpus,
		SeedOffset:    *flagSeed - 1,
		Parallel:      *flagParallel,
		EngineWorkers: *flagWorkers,
	})
	if err != nil {
		return err
	}
	if _, err := os.Stdout.Write(out.Markdown); err != nil {
		return err
	}
	if *flagJSON != "" {
		if err := writeJSON(out); err != nil {
			return err
		}
	}
	return writeMemProfile()
}

// loadSpecs loads and validates the -scenarios directory, keeping only the
// spec named by -exp unless it is "all".
func loadSpecs() ([]*scenario.Spec, error) {
	if err := cliutil.Dir("-scenarios", *flagScen); err != nil {
		return nil, err
	}
	specs, err := scenario.LoadDir(*flagScen)
	if err != nil {
		return nil, err
	}
	want := strings.ToLower(*flagExp)
	if want == "all" {
		return specs, nil
	}
	for _, s := range specs {
		if s.Name == want {
			return []*scenario.Spec{s}, nil
		}
	}
	return nil, fmt.Errorf("no scenario named %q in %s", want, *flagScen)
}

// runPGO expands the specs once and executes the batch -pgo-iters times
// under one CPU profile written to the -pgo path. The batch is the same job
// set BENCH.json measures — the engine's word scans, the lane traffic and
// the transformer wrappers in their real mix — so the profile steers PGO at
// the loops that matter. The first iteration warms the run-state pools;
// later iterations profile the steady state a long-lived server runs in.
func runPGO(specs []*scenario.Spec, corpus *graph.Corpus) error {
	batch, err := scenario.Expand(specs, scenario.ExpandOptions{Corpus: corpus, SeedOffset: *flagSeed - 1})
	if err != nil {
		return err
	}
	f, err := os.Create(*flagPGO)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := pprof.StartCPUProfile(f); err != nil {
		return err
	}
	defer pprof.StopCPUProfile()
	for i := 0; i < max(*flagPGOIters, 1); i++ {
		results, _ := sweep.Run(batch.Jobs, sweep.Options{
			Parallel:      *flagParallel,
			EngineWorkers: *flagWorkers,
		})
		if err := sweep.FirstErr(results); err != nil {
			return fmt.Errorf("pgo sweep iteration %d: %w", i, err)
		}
	}
	return nil
}

// writeMemProfile honours -memprofile after a run (no-op when unset).
func writeMemProfile() error {
	if *flagMem == "" {
		return nil
	}
	f, err := os.Create(*flagMem)
	if err != nil {
		return err
	}
	defer f.Close()
	runtime.GC()
	return pprof.WriteHeapProfile(f)
}

// writeJSON writes the -json document: the batch's records and sweep and
// instruction blocks (scenario.Doc) plus the corpus cold/warm block. The
// types live in internal/benchfmt, shared with cmd/benchguard.
func writeJSON(out *serve.Outcome) error {
	doc, err := scenario.Doc(out.Batch, out.Results, out.Stats, *flagSeed, *flagParallel, *flagWorkers)
	if err != nil {
		return err
	}
	if doc.Corpus, err = corpusBench(); err != nil {
		return fmt.Errorf("corpus bench: %w", err)
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(*flagJSON, append(data, '\n'), 0o644)
}

// corpusBench measures the disk tier on the largest paper family (the
// e8-gnp8-n16384 graph): cold is a fresh generation through a store-less corpus,
// warm is a second corpus loading the CSR image a store-attached build
// persisted. The image lands in -corpus-dir when set (pre-warming the shared
// store as a side effect), otherwise in a throwaway directory. Family, n,
// edge count and image size are deterministic and guarded by benchguard; the
// wall times record the machine's cold/warm ratio.
func corpusBench() (*benchfmt.CorpusBench, error) {
	const n = 16384
	p, seed := 8/float64(n-1), int64(n)
	dir := *flagCorpus
	if dir == "" {
		tmp, err := os.MkdirTemp("", "localbench-corpus-*")
		if err != nil {
			return nil, err
		}
		defer os.RemoveAll(tmp)
		dir = tmp
	}
	store, err := graph.OpenStore(dir)
	if err != nil {
		return nil, err
	}
	// Ensure the image exists: build once through the store (a pre-warmed
	// -corpus-dir makes this itself a disk hit).
	warmer := graph.NewCorpus()
	warmer.AttachStore(store)
	if _, err := warmer.GNP(n, p, seed); err != nil {
		return nil, err
	}

	start := time.Now()
	g, err := graph.NewCorpus().GNP(n, p, seed)
	if err != nil {
		return nil, err
	}
	coldNs := time.Since(start).Nanoseconds()

	loader := graph.NewCorpus()
	loader.AttachStore(store)
	start = time.Now()
	if _, err := loader.GNP(n, p, seed); err != nil {
		return nil, err
	}
	warmNs := time.Since(start).Nanoseconds()

	cb := &benchfmt.CorpusBench{
		Family: "gnp", N: n, Edges: g.NumEdges(),
		ColdNs: coldNs, WarmNs: warmNs,
	}
	if warmNs > 0 {
		cb.Speedup = float64(coldNs) / float64(warmNs)
	}
	images, err := store.Images()
	if err != nil {
		return nil, err
	}
	for _, img := range images {
		if img.Nodes == int64(n) && img.Edges == int64(cb.Edges) {
			cb.ImageBytes = img.Bytes
		}
	}
	return cb, nil
}
