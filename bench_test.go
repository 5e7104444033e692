package unilocal

// The experiments of DESIGN.md §3 that cmd/localbench tables are specs in
// scenarios/paper, benchmarked by BenchmarkPaper through the same
// serve.Execute path; the functions below cover the rest (edge colouring,
// Figure 1, Theorem 2, the ablations) and the engine and sweep layers. The
// reported custom metrics are the LOCAL-model quantities the paper reasons
// about: "rounds" (the running time of the algorithm on that instance) and,
// where relevant, "ratio" (uniform rounds / non-uniform rounds with correct
// guesses — the paper's headline "same asymptotic running time" claim
// corresponds to this ratio staying bounded as n grows). Wall-clock ns/op
// only measures the simulator.

import (
	"fmt"
	"path/filepath"
	"runtime"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/luby"
	"github.com/unilocal/unilocal/internal/algorithms/seqmis"
	"github.com/unilocal/unilocal/internal/engines"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/serve"
	"github.com/unilocal/unilocal/internal/sweep"
)

// benchCorpus caches every benchmark topology across the whole binary run:
// the same (family, params, seed) graph backs every benchmark that asks for
// it, exactly as cmd/localbench shares its corpus across experiments.
var benchCorpus = graph.NewCorpus()

// run executes one simulation through the sweep scheduler (inline, one job)
// and fails the benchmark on error.
func run(b *testing.B, g *graph.Graph, a local.Algorithm, seed int64) *local.Result {
	b.Helper()
	results, _ := sweep.Run([]sweep.Job{{
		Graph: g,
		Algo:  func() local.Algorithm { return a },
		Seed:  seed,
	}}, sweep.Options{Parallel: 1})
	if results[0].Err != nil {
		b.Fatal(results[0].Err)
	}
	return results[0].Res
}

// benchGraphs builds the standard sweep families.
func benchCycle(b *testing.B, n int) *graph.Graph {
	g, err := benchCorpus.Cycle(n)
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchRegular(b *testing.B, n, d int) *graph.Graph {
	g, err := benchCorpus.RandomRegular(n, d, int64(n+d))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

func benchGNP(b *testing.B, n int, avgDeg float64) *graph.Graph {
	g, err := benchCorpus.GNP(n, avgDeg/float64(n-1), int64(n))
	if err != nil {
		b.Fatal(err)
	}
	return g
}

// compare runs the non-uniform baseline (correct guesses) and the uniform
// transform as one scheduler batch per iteration, reporting rounds and the
// ratio.
func compare(b *testing.B, g *graph.Graph, nonUniform, uniform local.Algorithm, check func([]any) error) {
	b.Helper()
	var nu, un *local.Result
	for i := 0; i < b.N; i++ {
		results, _ := sweep.Run([]sweep.Job{
			{Graph: g, Algo: func() local.Algorithm { return nonUniform }, Seed: int64(i)},
			{Graph: g, Algo: func() local.Algorithm { return uniform }, Seed: int64(i)},
		}, sweep.Options{Parallel: 1})
		if err := sweep.FirstErr(results); err != nil {
			b.Fatal(err)
		}
		nu, un = results[0].Res, results[1].Res
	}
	if err := check(un.Outputs); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(nu.Rounds), "rounds/nonuniform")
	b.ReportMetric(float64(un.Rounds), "rounds/uniform")
	b.ReportMetric(float64(un.Rounds)/float64(nu.Rounds), "ratio")
}

func misCheck(g *graph.Graph) func([]any) error {
	return func(outputs []any) error {
		in, err := problems.Bools(outputs)
		if err != nil {
			return err
		}
		return problems.ValidMIS(g, in)
	}
}

// BenchmarkPaper runs every spec of scenarios/paper (E1–E4, E6–E10, E13)
// as one sub-benchmark named after the spec, through serve.Execute — the
// path cmd/localbench prints EXPERIMENTS.md from, output checks included. It
// reports the mean rounds of each role and, for paired specs, their ratio.
func BenchmarkPaper(b *testing.B) {
	specs, err := scenario.LoadDir(filepath.Join("scenarios", "paper"))
	if err != nil {
		b.Fatal(err)
	}
	for _, s := range specs {
		b.Run(s.Name, func(b *testing.B) {
			var out *serve.Outcome
			for i := 0; i < b.N; i++ {
				if out, err = serve.Execute([]*scenario.Spec{s}, serve.ExecOptions{Corpus: benchCorpus, Parallel: 1}); err != nil {
					b.Fatal(err)
				}
			}
			rounds := map[string]float64{}
			jobs := map[string]float64{}
			for ji, m := range out.Batch.Metas {
				rounds[m.Role] += float64(out.Results[ji].Res.Rounds)
				jobs[m.Role]++
			}
			for role, n := range jobs {
				b.ReportMetric(rounds[role]/n, "rounds/"+role)
			}
			if jobs["baseline"] > 0 {
				b.ReportMetric((rounds["uniform"]/jobs["uniform"])/(rounds["baseline"]/jobs["baseline"]), "ratio")
			}
		})
	}
}

// BenchmarkTable1_EdgeColoring reproduces the edge-coloring rows (E5) via
// the line-graph lift.
func BenchmarkTable1_EdgeColoring(b *testing.B) {
	for _, n := range []int{256, 1024} {
		g := benchRegular(b, n, 6)
		b.Run(fmt.Sprintf("regular6/n=%d", n), func(b *testing.B) {
			var res *local.Result
			for i := 0; i < b.N; i++ {
				res = run(b, g, engines.NonUniformEdgeColoring(engines.GraphParams(g)), int64(i))
			}
			b.ReportMetric(float64(res.Rounds), "rounds/nonuniform")
		})
	}
	uniform, err := engines.UniformEdgeColoring()
	if err != nil {
		b.Fatal(err)
	}
	g := benchRegular(b, 256, 6)
	b.Run("uniform/regular6/n=256", func(b *testing.B) {
		var res *local.Result
		for i := 0; i < b.N; i++ {
			res = run(b, g, uniform, int64(i))
		}
		b.ReportMetric(float64(res.Rounds), "rounds/uniform")
	})
}

// BenchmarkFigure1_AlternatingCascade reproduces Figure 1 (E11): the
// alternating algorithm's per-iteration shrinkage of the surviving graph,
// driven by a weak Monte Carlo engine so several iterations are exercised.
func BenchmarkFigure1_AlternatingCascade(b *testing.B) {
	g := benchGNP(b, 2048, 8)
	lv := engines.LasVegasMIS()
	var res *local.Result
	for i := 0; i < b.N; i++ {
		res = run(b, g, lv, int64(i))
	}
	if err := misCheck(g)(res.Outputs); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(float64(res.Rounds), "rounds")
	// The cascade itself (survivors per iteration) is printed by
	// cmd/localtrace; here we report how many nodes survived past the first
	// pruning phase as a cascade proxy.
	first := res.Rounds
	for _, h := range res.HaltRounds {
		if h < first {
			first = h
		}
	}
	late := 0
	for _, h := range res.HaltRounds {
		if h > first {
			late++
		}
	}
	b.ReportMetric(float64(late), "survivors_after_first_prune")
}

// BenchmarkTheorem2_LasVegas reproduces the Monte-Carlo-to-Las-Vegas
// transformation (E12) on MIS.
func BenchmarkTheorem2_LasVegas(b *testing.B) {
	lv := engines.LasVegasMIS()
	for _, n := range []int{256, 1024, 4096} {
		g := benchGNP(b, n, 8)
		b.Run(fmt.Sprintf("gnp8/n=%d", n), func(b *testing.B) {
			total := 0
			var res *local.Result
			for i := 0; i < b.N; i++ {
				res = run(b, g, lv, int64(i))
				total += res.Rounds
			}
			if err := misCheck(g)(res.Outputs); err != nil {
				b.Fatal(err)
			}
			b.ReportMetric(float64(total)/float64(b.N), "rounds/avg")
		})
	}
}

// BenchmarkAblation_TransformerOverhead isolates the Theorem 1 overhead
// (E14): the ratio uniform/non-uniform across a size sweep must stay flat.
func BenchmarkAblation_TransformerOverhead(b *testing.B) {
	uniform := engines.UniformMISDelta()
	for _, n := range []int{128, 512, 2048, 8192} {
		g := benchRegular(b, n, 4)
		b.Run(fmt.Sprintf("regular4/n=%d", n), func(b *testing.B) {
			compare(b, g, engines.NonUniformMISDelta(engines.GraphParams(g)), uniform, misCheck(g))
		})
	}
}

// BenchmarkAblation_PruningRadius measures the cost of the pruning phase as
// a function of the pruner radius β (every alternating window pays
// radius+2 rounds).
func BenchmarkAblation_PruningRadius(b *testing.B) {
	g := benchGNP(b, 512, 8)
	for _, beta := range []int{1, 2, 3} {
		uniform := engines.LasVegasRulingSet(beta)
		b.Run(fmt.Sprintf("beta=%d", beta), func(b *testing.B) {
			var res *local.Result
			for i := 0; i < b.N; i++ {
				res = run(b, g, uniform, int64(i))
			}
			b.ReportMetric(float64(res.Rounds), "rounds")
		})
	}
}

// BenchmarkAblation_SeqNumberShapes contrasts the additive (s_f = 1) and
// product (s_f = O(log)) sequence-number machineries on the same engine by
// counting scheduled guess vectors per iteration.
func BenchmarkAblation_SeqNumberShapes(b *testing.B) {
	_, additive := engines.MISDeltaEngine()
	_, product := engines.MISArbEngine()
	var addTotal, prodTotal int
	for i := 0; i < b.N; i++ {
		addTotal, prodTotal = 0, 0
		for iter := 1; iter <= 12; iter++ {
			addTotal += len(additive.Sets(1 << uint(iter)))
			prodTotal += len(product.Sets(1 << uint(iter)))
		}
	}
	b.ReportMetric(float64(addTotal), "vectors/additive")
	b.ReportMetric(float64(prodTotal), "vectors/product")
}

// BenchmarkEngineThroughput measures raw simulator speed (node-rounds/s) as
// an implementation metric.
func BenchmarkEngineThroughput(b *testing.B) {
	g := benchGNP(b, 8192, 8)
	b.ResetTimer()
	var nodeRounds int64
	for i := 0; i < b.N; i++ {
		res := run(b, g, seqmis.New(), int64(i))
		for _, h := range res.HaltRounds {
			nodeRounds += int64(h + 1)
		}
	}
	b.ReportMetric(float64(nodeRounds)/b.Elapsed().Seconds(), "node-rounds/s")
}

// sweepBatch is the standard run-level throughput workload: a mixed batch of
// Luby runs across graph families, sizes and seeds — many independent whole
// simulations, the shape cmd/localbench -parallel schedules.
func sweepBatch(b *testing.B, seeds int) []sweep.Job {
	b.Helper()
	var jobs []sweep.Job
	a := luby.New()
	for _, n := range []int{512, 1024, 2048} {
		for _, g := range []*graph.Graph{
			benchGNP(b, n, 8),
			benchCycle(b, n),
			benchRegular(b, n, 4),
		} {
			for seed := int64(0); seed < int64(seeds); seed++ {
				jobs = append(jobs, sweep.Job{
					Graph: g,
					Algo:  func() local.Algorithm { return a },
					Seed:  seed,
				})
			}
		}
	}
	return jobs
}

// BenchmarkSweepThroughput measures batch scheduling of whole simulations:
// sequential (the old harness behaviour: one run at a time) versus one
// scheduler worker per core. jobs/sec is the headline run-level throughput
// metric tracked in BENCH.json; engine-allocs/job must stay near zero once
// the per-worker pooled states are warm.
func BenchmarkSweepThroughput(b *testing.B) {
	jobs := sweepBatch(b, 4)
	for _, mode := range []struct {
		name     string
		parallel int
	}{
		{"sequential", 1},
		{"parallel", runtime.GOMAXPROCS(0)},
	} {
		b.Run(fmt.Sprintf("%s/jobs=%d", mode.name, len(jobs)), func(b *testing.B) {
			b.ReportAllocs()
			var stats sweep.Stats
			for i := 0; i < b.N; i++ {
				results, s := sweep.Run(jobs, sweep.Options{Parallel: mode.parallel})
				if err := sweep.FirstErr(results); err != nil {
					b.Fatal(err)
				}
				stats = s
			}
			b.ReportMetric(stats.JobsPerSec, "jobs/s")
			b.ReportMetric(float64(stats.EngineAllocs)/float64(stats.Jobs), "engine-allocs/job")
		})
	}
}

// BenchmarkSweepWarmPool isolates the RunState pool: back-to-back same-shape
// runs must be near-zero-alloc on the engine side (node construction aside),
// the warm path every scheduler worker hits after its first job.
func BenchmarkSweepWarmPool(b *testing.B) {
	g := benchGNP(b, 4096, 8)
	a := luby.New()
	st := local.AcquireRunState(g.N(), g.NumEdges())
	defer st.Release()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := local.Run(g, a, local.Options{Seed: int64(i), Sequential: true, State: st}); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(st.Allocs()), "state-allocs-total")
}
