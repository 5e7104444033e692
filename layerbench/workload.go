package main

import (
	"embed"
	"fmt"
)

// The workloads pin their scenario specs by copy: specs/ holds the
// committed scenarios/ files they run, so an edit to the corpus cannot
// silently change what the benchmark measures.
//
//go:embed specs/*.json
var specFS embed.FS

type workload struct {
	name string
	// specs are the scenario names, run in this order.
	specs []string
	// offsets is the number of consecutive seed offsets one batch pass
	// expands; 0 marks the serving workload.
	offsets int
}

var workloads = []workload{
	// Lift- and allocation-heavy: the matchings run MIS on the line graph,
	// the hypercube colouring on the clique product and the ruling set on a
	// graph power, so the line, product and power lifts all sit on the hot
	// path while Linial's prime search barely shows.
	// The longest job comes first, so the two sweep workers finish close
	// together instead of one idling behind it.
	{name: "lift-matching", offsets: 1, specs: []string{
		"matching-geometric-dense", "matching-gnp", "deg-coloring-hypercube-dense", "rulingset-smallworld",
	}},
	// The mirror image: MIS and colouring on the base graph with no lift,
	// where Linial's schedule (prime search) and the compose synchronizer
	// dominate. One seed is ~2.5 s, so a pass covers two seed offsets.
	{name: "mis-core", offsets: 2, specs: []string{
		"mis-delta-cycle-dense", "mis-delta-geometric-sparse", "mis-delta-smallworld",
		"mis-id-gnp-dense",
		"mis-arb-ba", "mis-arb-forest-clustered",
		"best-mis-lollipop",
		"luby-ba-seeds",
		"lambda-coloring-regular", "lambda-coloring-torus-clustered",
	}},
	// Cache hits and cold executions from two closed-loop clients against
	// one default-configured server, on four cheap specs.
	{name: "serve-mixed", specs: []string{
		"mis-id-gnp-dense", "mis-delta-cycle-dense", "luby-ba-seeds", "deg-coloring-hypercube-dense",
	}},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// specBytes returns the pinned spec files of w, in order.
func (w *workload) specBytes() ([][]byte, error) {
	out := make([][]byte, len(w.specs))
	for i, name := range w.specs {
		data, err := specFS.ReadFile("specs/" + name + ".json")
		if err != nil {
			return nil, err
		}
		out[i] = data
	}
	return out, nil
}

type metricDef struct{ name, unit string }

// endToEnd are printed by an untraced run (--trace 0); every workload
// defines each of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"batch_s", "s"},
	{"op_p50_ms", "ms"},
	{"peak_heap_mb", "MB"},
}

// algoNames are the registry algorithms with an algo.<name>.run_s metric.
var algoNames = []string{
	"uniform-mis-delta", "nonuniform-mis-delta",
	"uniform-mis-id", "nonuniform-mis-id",
	"uniform-mis-arb", "nonuniform-mis-arb",
	"best-mis", "luby-mis", "lasvegas-mis",
	"uniform-lambda-coloring", "nonuniform-lambda-coloring",
	"uniform-quad-coloring", "uniform-deg-coloring",
	"uniform-matching", "nonuniform-matching",
	"lasvegas-rulingset", "nonuniform-rulingset",
}

// perLayer are printed by a traced run (--trace 1). A metric of a layer a
// workload does not reach reads 0 on it.
var perLayer = func() []metricDef {
	defs := []metricDef{
		{"scenario.parse_ms", "ms"},
		{"scenario.expand_ms", "ms"},
		{"scenario.algo_builds", "count"},
		{"scenario.algo_shares", "count"},
		{"scenario.render_ms", "ms"},
		{"graph.build_ms", "ms"},
		{"graph.corpus_hits", "count"},
		{"graph.corpus_misses", "count"},
		{"graph.nodes", "count"},
		{"graph.edges", "count"},
		{"sweep.wall_s", "s"},
		{"sweep.job_wall_sum_s", "s"},
		{"sweep.idle_frac", "fraction"},
		// Engine-buffer reuse goes through a sync.Pool, so this count
		// depends on GC timing; local.node_steps/messages/rounds are the
		// exact work counters.
		{"sweep.engine_allocs", "count-nondet"},
		{"local.node_steps", "count"},
		{"local.messages", "count"},
		{"local.rounds", "count"},
		{"local.ns_per_step", "ns"},
		{"local.frontier_occupancy", "fraction"},
	}
	for _, a := range algoNames {
		defs = append(defs, metricDef{"algo." + a + ".run_s", "s"})
	}
	defs = append(defs,
		metricDef{"problems.check_ms", "ms"},
		metricDef{"problems.invalid", "count"},
		metricDef{"runtime.alloc_bytes", "bytes"},
		metricDef{"runtime.alloc_objects", "count"},
		metricDef{"runtime.gc_cycles", "count"},
		metricDef{"runtime.gc_pause_ms", "ms"},
		metricDef{"cpu.samples", "count"},
	)
	for _, b := range cpuBuckets {
		defs = append(defs, metricDef{"cpu." + b + "_frac", "fraction"})
	}
	return append(defs,
		metricDef{"serve.handler_hit_ms", "ms"},
		metricDef{"serve.handler_miss_ms", "ms"},
		metricDef{"serve.transport_ms", "ms"},
		metricDef{"serve.cache_hits", "count"},
		metricDef{"serve.cache_misses", "count"},
		metricDef{"serve.coalesced", "count"},
		metricDef{"serve.rejected", "count"},
		metricDef{"serve.sweep_wall_s", "s"},
		metricDef{"serve.req_per_s", "1/s"},
		metricDef{"serve.run_hit_p50_ms", "ms"},
		metricDef{"serve.run_hit_p99_ms", "ms"},
		metricDef{"serve.run_cold_p50_ms", "ms"},
		metricDef{"serve.run_cold_p90_ms", "ms"},
		metricDef{"serve.hit_n", "count"},
		metricDef{"serve.cold_n", "count"},
		metricDef{"serve.hit_ratio", "fraction"},
		metricDef{"fail_frac", "fraction"},
		metricDef{"trace.overhead_batch_s", "s"},
		metricDef{"trace.overhead_op_p50_ms", "ms"},
		metricDef{"trace.spans", "count"},
	)
}()
