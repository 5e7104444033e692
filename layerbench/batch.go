package main

import (
	"bytes"
	"fmt"
	"runtime"
	"syscall"
	"time"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/sweep"
)

// counters are a job's exact work counts: pure functions of (spec, seed).
type counters struct {
	Rounds   int   `json:"rounds"`
	Messages int64 `json:"messages"`
	Steps    int64 `json:"steps"`
}

// batchRunner runs a batch workload the way `localbench -scenarios
// -parallel 0` does: every pass parses the pinned specs, builds the graphs
// on a fresh corpus, expands, sweeps with one simulation in flight per CPU,
// checks and renders.
type batchRunner struct {
	w    *workload
	raw  [][]byte
	base int64 // seed offset of the pass's first expansion
	// golden holds the committed counters by job label; ref holds the first
	// pass's counters and markdown, which every later pass must repeat.
	golden   map[string]counters
	ref      map[string]counters
	refMarks [][]byte
}

func newBatchRunner(w *workload, seed int64) (*batchRunner, error) {
	raw, err := w.specBytes()
	if err != nil {
		return nil, err
	}
	golden, err := loadGolden()
	if err != nil {
		return nil, err
	}
	return &batchRunner{w: w, raw: raw, base: seed - 1, golden: golden}, nil
}

func (r *batchRunner) close() error { return nil }

// batchPass is the timed part of one pass plus what verification needs.
type batchPass struct {
	batches []*scenario.Batch
	results []sweep.Result
	stats   sweep.Stats
	checks  []error // Batch.Check result per job, in sweep order
	marks   [][]byte
	errs    []error // render error per batch
	layer   map[string]float64
	wall    time.Duration
}

func (r *batchRunner) pass(tr *tracer) (*passResult, error) {
	root := tr.begin("pass", 0)
	p, err := r.run(tr, root.id)
	root.end()
	if err != nil {
		return nil, err
	}
	return r.verify(p), nil
}

// run is one pass from spec bytes to rendered markdown. batch_s is timed
// from parsed specs to the last rendered byte, on a fresh corpus, so a
// memo that outlives the corpus shows as set-up cost, not as a faster pass.
func (r *batchRunner) run(tr *tracer, parent int64) (*batchPass, error) {
	sp := tr.begin("parse", parent)
	specs := make([]*scenario.Spec, len(r.raw))
	for i, data := range r.raw {
		s, err := scenario.Parse(data)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %w", r.w.specs[i], err)
		}
		specs[i] = s
	}
	parseD := sp.end()

	t0 := time.Now()
	corpus := graph.NewCorpus()
	sp = tr.begin("graph", parent)
	var nodes, edges int
	for _, s := range specs {
		g, err := s.Graph.Build(corpus)
		if err == nil {
			g, err = s.IDs.Apply(corpus, g)
		}
		if err != nil {
			return nil, fmt.Errorf("graph %s: %w", s.Name, err)
		}
		nodes += g.N()
		edges += g.NumEdges()
	}
	graphD := sp.end()

	sp = tr.begin("expand", parent)
	p := &batchPass{batches: make([]*scenario.Batch, r.w.offsets)}
	var jobs []sweep.Job
	builds, shares := 0, 0
	for k := range p.batches {
		b, err := scenario.Expand(specs, scenario.ExpandOptions{Corpus: corpus, SeedOffset: r.base + int64(k)})
		if err != nil {
			return nil, err
		}
		p.batches[k] = b
		jobs = append(jobs, b.Jobs...)
		builds += b.AlgoBuilds
		shares += b.AlgoShares
	}
	expandD := sp.end()

	sweepSpan := tr.begin("sweep", parent)
	cpu0 := cpuTime()
	var onResult func(int, sweep.Result)
	if tr != nil {
		onResult = func(_ int, res sweep.Result) {
			end := time.Now()
			tr.record("job", sweepSpan.id, end.Add(-res.Wall), end)
		}
	}
	p.results, p.stats = sweep.Run(jobs, sweep.Options{OnResult: onResult})
	cpuD := cpuTime() - cpu0
	sweepD := sweepSpan.end()

	sp = tr.begin("check", parent)
	invalid := 0
	p.checks = make([]error, len(jobs))
	p.eachJob(func(i int, b *scenario.Batch, ji int, res sweep.Result) {
		if res.Err == nil {
			if p.checks[i] = b.Check(ji, res.Res.Outputs); p.checks[i] != nil {
				invalid++
			}
		}
	})
	checkD := sp.end()

	sp = tr.begin("render", parent)
	p.marks = make([][]byte, len(p.batches))
	p.errs = make([]error, len(p.batches))
	at := 0
	for k, b := range p.batches {
		var buf bytes.Buffer
		p.errs[k] = scenario.Render(&buf, b, p.results[at:at+len(b.Jobs)])
		p.marks[k] = buf.Bytes()
		at += len(b.Jobs)
	}
	renderD := sp.end()
	p.wall = time.Since(t0)

	if tr == nil {
		return p, nil
	}
	hits, misses := corpus.Stats()
	var jobWall time.Duration
	var msgs, rounds int64
	byAlgo := map[string]time.Duration{}
	p.eachJob(func(_ int, b *scenario.Batch, ji int, res sweep.Result) {
		jobWall += res.Wall
		byAlgo[b.Metas[ji].Algo.Name] += res.Wall
		if res.Res != nil {
			msgs += res.Res.Messages
			rounds += int64(res.Res.Rounds)
		}
	})
	p.layer = map[string]float64{
		"scenario.parse_ms":        ms(parseD),
		"scenario.expand_ms":       ms(expandD),
		"scenario.algo_builds":     float64(builds),
		"scenario.algo_shares":     float64(shares),
		"scenario.render_ms":       ms(renderD),
		"graph.build_ms":           ms(graphD),
		"graph.corpus_hits":        float64(hits),
		"graph.corpus_misses":      float64(misses),
		"graph.nodes":              float64(nodes),
		"graph.edges":              float64(edges),
		"sweep.wall_s":             p.stats.Wall.Seconds(),
		"sweep.job_wall_sum_s":     jobWall.Seconds(),
		"sweep.idle_frac":          1 - cpuD.Seconds()/(sweepD.Seconds()*float64(runtime.GOMAXPROCS(0))),
		"sweep.engine_allocs":      float64(p.stats.EngineAllocs),
		"local.node_steps":         float64(p.stats.NodeSteps),
		"local.messages":           float64(msgs),
		"local.rounds":             float64(rounds),
		"local.frontier_occupancy": p.stats.FrontierOccupancy,
		"problems.check_ms":        ms(checkD),
		"problems.invalid":         float64(invalid),
	}
	if p.stats.NodeSteps > 0 {
		p.layer["local.ns_per_step"] = float64(jobWall.Nanoseconds()) / float64(p.stats.NodeSteps)
	}
	for _, a := range algoNames {
		p.layer["algo."+a+".run_s"] = byAlgo[a].Seconds()
	}
	return p, nil
}

// eachJob visits every job of the pass with its sweep index, its batch and
// its index in that batch.
func (p *batchPass) eachJob(fn func(i int, b *scenario.Batch, ji int, res sweep.Result)) {
	at := 0
	for _, b := range p.batches {
		for ji := range b.Jobs {
			fn(at+ji, b, ji, p.results[at+ji])
		}
		at += len(b.Jobs)
	}
}

// verify checks every job and every rendered document of a pass. A job
// fails on a run error, an invalid output, counters that differ from the
// golden (where it has the job's seed) or from the first pass; a document
// fails on a render error or bytes that differ from the first pass's.
func (r *batchRunner) verify(p *batchPass) *passResult {
	// A batch user's operation is the whole pass: one localbench run.
	out := &passResult{wall: p.wall, ops: []float64{ms(p.wall)}, layer: p.layer}
	first := r.ref == nil
	if first {
		r.ref = map[string]counters{}
	}
	p.eachJob(func(i int, b *scenario.Batch, ji int, res sweep.Result) {
		label := b.Jobs[ji].Label
		out.attempted++
		err := res.Err
		if err == nil {
			err = p.checks[i]
		}
		if err == nil {
			got := counters{Rounds: res.Res.Rounds, Messages: res.Res.Messages, Steps: res.Res.Steps}
			if want, ok := r.golden[label]; ok && got != want {
				err = fmt.Errorf("counters %+v, golden %+v", got, want)
			} else if first {
				r.ref[label] = got
			} else if want := r.ref[label]; got != want {
				err = fmt.Errorf("counters %+v, first pass %+v", got, want)
			}
		}
		if err != nil {
			out.fail(fmt.Errorf("job %s: %w", label, err))
		}
	})
	if first {
		r.refMarks = p.marks
	}
	for k, md := range p.marks {
		out.attempted++
		switch {
		case p.errs[k] != nil:
			out.fail(fmt.Errorf("render: %w", p.errs[k]))
		case !bytes.Equal(md, r.refMarks[k]):
			out.fail(fmt.Errorf("render of seed offset %d differs from the first pass", r.base+int64(k)))
		}
	}
	return out
}

// cpuTime is the process's user plus system CPU time.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
