// Package scenario turns benchmark workloads into data. A scenario is a
// declarative description of one experiment — a graph family with
// parameters, an identity-assignment regime, an algorithm (and optionally a
// non-uniform baseline) named through a registry over internal/engines, a
// seed grid and a repetition count — stored as a JSON file and expanded into
// internal/sweep jobs at run time.
//
// The paper's uniform algorithms are exactly the ones that must survive any
// graph, any identity assignment and any parameter regime without being told
// global quantities; a hard-coded experiment list exercises only the
// combinations its author thought of. The committed corpus under scenarios/
// is the workload-open replacement: cmd/localbench -scenarios runs a
// directory of specs through the sweep scheduler (byte-identical output for
// any parallelism, which CI's scenario gate enforces), and cmd/scenarioctl
// validates a corpus without running it.
//
// Determinism contract: every simulation outcome rendered or written to JSON
// is a pure function of (spec, seed offset). Graphs build through a shared
// graph.Corpus; identity regimes are corpus-cached derived constructions;
// job order, table order and all rendered fields are independent of
// scheduler parallelism and engine worker count.
package scenario

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"sort"

	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/graph"
)

// ID regimes: how node identities are perturbed before the run. The paper's
// parameter m (the maximum identity) is exactly the global knowledge a
// uniform algorithm is denied, so the regimes stress the three adversarial
// shapes: tightly packed, astronomically sparse, and clustered.
const (
	// RegimeDefault keeps the generator's identities (1..n in builder order).
	RegimeDefault = "default"
	// RegimeDense assigns a uniform random permutation of [1, n] — maximum
	// collision pressure on the shuffler and the smallest possible m.
	RegimeDense = "dense"
	// RegimeSparseHuge scatters identities uniformly over [1, 2^40] (or
	// max_id): m is ~2^40 while n stays small, the regime that punishes any
	// algorithm whose time depends on m more than logarithmically.
	RegimeSparseHuge = "sparse-huge"
	// RegimeClustered packs identities into a few tight far-apart blocks
	// (see graph.WithClusteredIDs) — adversarial for identity-based symmetry
	// breaking and for guess growth at once.
	RegimeClustered = "clustered"
)

// defaultSparseMaxID is the sparse-huge identity range when max_id is unset.
const defaultSparseMaxID = int64(1) << 40

// Clustered-regime defaults when the spec leaves them unset.
const (
	defaultClusters       = 8
	defaultClusteredMaxID = int64(1) << 30
)

// IDSpec selects an identity-assignment regime.
type IDSpec struct {
	// Regime is one of "", "default", "dense", "sparse-huge", "clustered".
	Regime string `json:"regime,omitempty"`
	// MaxID overrides the regime's identity range (sparse-huge, clustered).
	MaxID int64 `json:"max_id,omitempty"`
	// Clusters overrides the block count (clustered only).
	Clusters int `json:"clusters,omitempty"`
	// Seed drives the perturbation.
	Seed int64 `json:"seed,omitempty"`
}

// String renders the spec deterministically, e.g. "clustered(blocks=8)".
func (is IDSpec) String() string {
	switch is.Regime {
	case "", RegimeDefault:
		return RegimeDefault
	case RegimeDense:
		return fmt.Sprintf("dense(seed=%d)", is.Seed)
	case RegimeClustered:
		c := is.Clusters
		if c == 0 {
			c = defaultClusters
		}
		return fmt.Sprintf("%s(blocks=%d, max=%d, seed=%d)", is.Regime, c, is.effectiveMaxID(0), is.Seed)
	default:
		return fmt.Sprintf("%s(max=%d, seed=%d)", is.Regime, is.effectiveMaxID(0), is.Seed)
	}
}

// effectiveMaxID is the identity range the regime will actually use on a
// graph of n nodes (n == 0 renders defaults only).
func (is IDSpec) effectiveMaxID(n int) int64 {
	switch is.Regime {
	case RegimeSparseHuge:
		if is.MaxID != 0 {
			return is.MaxID
		}
		return defaultSparseMaxID
	case RegimeClustered:
		if is.MaxID != 0 {
			return is.MaxID
		}
		return defaultClusteredMaxID
	default:
		return int64(n)
	}
}

// Validate checks regime names and parameter compatibility.
func (is IDSpec) Validate() error {
	switch is.Regime {
	case "", RegimeDefault:
		if is.Seed != 0 {
			return fmt.Errorf("ids: the default regime takes no seed (identities are not perturbed)")
		}
		if is.MaxID != 0 {
			return fmt.Errorf("ids: regime %q takes no max_id", is.String())
		}
	case RegimeDense:
		if is.MaxID != 0 {
			return fmt.Errorf("ids: regime %q takes no max_id", is.String())
		}
	case RegimeSparseHuge, RegimeClustered:
		if is.MaxID < 0 || is.MaxID > graph.MaxPackedID {
			return fmt.Errorf("ids: max_id %d out of range [0, %d]", is.MaxID, graph.MaxPackedID)
		}
	default:
		return fmt.Errorf("ids: unknown regime %q (have: default, dense, sparse-huge, clustered)", is.Regime)
	}
	if is.Regime != RegimeClustered && is.Clusters != 0 {
		return fmt.Errorf("ids: clusters is only meaningful for the clustered regime")
	}
	if is.Clusters < 0 {
		return fmt.Errorf("ids: clusters %d must be >= 1", is.Clusters)
	}
	return nil
}

// Apply perturbs g's identities through the corpus, so repeated expansions
// of the same (graph, regime) share one instance.
func (is IDSpec) Apply(c *graph.Corpus, g *graph.Graph) (*graph.Graph, error) {
	switch is.Regime {
	case "", RegimeDefault:
		return g, nil
	case RegimeDense:
		return c.ShuffledIDsOf(g, int64(g.N()), is.Seed)
	case RegimeSparseHuge:
		return c.ShuffledIDsOf(g, is.effectiveMaxID(g.N()), is.Seed)
	case RegimeClustered:
		clusters := is.Clusters
		if clusters == 0 {
			clusters = defaultClusters
		}
		return c.ClusteredIDsOf(g, clusters, is.effectiveMaxID(g.N()), is.Seed)
	default:
		return nil, fmt.Errorf("ids: unknown regime %q", is.Regime)
	}
}

// Spec is one declarative scenario.
type Spec struct {
	// Name identifies the scenario in output and artifacts (lower-case
	// kebab-case, unique within a corpus).
	Name string `json:"name"`
	// Description is free-form prose rendered above the scenario's table.
	Description string `json:"description,omitempty"`
	// Graph names the topology.
	Graph GraphSpec `json:"graph"`
	// IDs selects the identity regime (default: keep generator identities).
	IDs IDSpec `json:"ids,omitzero"`
	// Algorithm is the algorithm under test.
	Algorithm AlgoSpec `json:"algorithm"`
	// Baseline optionally names a non-uniform reference; when present every
	// (seed, rep) also runs the baseline and the table reports the
	// uniform/baseline round ratio.
	Baseline *AlgoSpec `json:"baseline,omitempty"`
	// Knowledge selects the knowledge regime of non-uniform algorithms
	// (default: exact — the measured parameters, today's behavior). Under
	// the upper-bound regime every PerGraph role runs once per looseness
	// factor λ, fed ⌈λ·true⌉ parameters.
	Knowledge KnowledgeSpec `json:"knowledge,omitzero"`
	// Scheduler selects a deterministic adversarial scheduler for every run
	// (default: clean lockstep).
	Scheduler SchedSpec `json:"scheduler,omitzero"`
	// Seeds is the simulation seed grid (default: [1]).
	Seeds []int64 `json:"seeds,omitempty"`
	// Repeat runs every seed this many times (default: 1). Repetitions are
	// deterministic replicas — useful for wall-time stability in the JSON
	// artifact, invisible in the deterministic fields.
	Repeat int `json:"repeat,omitempty"`
	// MaxRounds caps each simulation; 0 means the engine default.
	MaxRounds int `json:"max_rounds,omitempty"`
}

var nameRE = regexp.MustCompile(`^[a-z0-9][a-z0-9-]*$`)

// Validate checks the whole spec without building anything.
func (s *Spec) Validate() error {
	if !nameRE.MatchString(s.Name) {
		return fmt.Errorf("scenario name %q must be lower-case kebab-case", s.Name)
	}
	if err := s.Graph.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := s.IDs.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := s.Knowledge.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	if err := s.Scheduler.Validate(); err != nil {
		return fmt.Errorf("scenario %s: %w", s.Name, err)
	}
	for _, as := range s.algoSpecs() {
		if err := as.Validate(); err != nil {
			return fmt.Errorf("scenario %s: %w", s.Name, err)
		}
		// Pair-packing algorithms cannot carry identities beyond graph.MaxID;
		// catch the conflict at validation time instead of mid-run.
		entry, _ := LookupAlgorithm(as.Name)
		if entry.PacksIDs && s.IDs.effectiveMaxID(1) > graph.MaxID {
			return fmt.Errorf("scenario %s: algorithm %s packs identity pairs and cannot run under ids regime %s (max_id %d > %d)",
				s.Name, as.Name, s.IDs.Regime, s.IDs.effectiveMaxID(1), graph.MaxID)
		}
		// Under the none regime no parameters are advertised, so a
		// non-uniform algorithm cannot run at all — reject the pairing at
		// validation time instead of at expansion.
		if entry.PerGraph && s.Knowledge.Regime == core.KnowNone {
			return fmt.Errorf("scenario %s: knowledge regime %s advertises no parameters; non-uniform algorithm %s cannot run (drop it or pick exact/upper-bound)",
				s.Name, core.KnowNone, as.Name)
		}
	}
	seen := make(map[int64]bool, len(s.Seeds))
	for _, sd := range s.Seeds {
		if seen[sd] {
			return fmt.Errorf("scenario %s: duplicate seed %d", s.Name, sd)
		}
		seen[sd] = true
	}
	if s.Repeat < 0 {
		return fmt.Errorf("scenario %s: repeat %d must be >= 0", s.Name, s.Repeat)
	}
	if s.MaxRounds < 0 {
		return fmt.Errorf("scenario %s: max_rounds %d must be >= 0", s.Name, s.MaxRounds)
	}
	return nil
}

// algoSpecs lists the algorithm and, when present, the baseline.
func (s *Spec) algoSpecs() []AlgoSpec {
	out := []AlgoSpec{s.Algorithm}
	if s.Baseline != nil {
		out = append(out, *s.Baseline)
	}
	return out
}

// seeds returns the effective seed grid.
func (s *Spec) seeds() []int64 {
	if len(s.Seeds) == 0 {
		return []int64{1}
	}
	return s.Seeds
}

// repeat returns the effective repetition count.
func (s *Spec) repeat() int {
	if s.Repeat == 0 {
		return 1
	}
	return s.Repeat
}

// knowledgeGrid returns the per-job knowledge values one role expands into:
// the spec's looseness grid for PerGraph (non-uniform) entries, a single
// exact value for uniform ones, which never receive parameters.
func (s *Spec) knowledgeGrid(as AlgoSpec) []core.Knowledge {
	if e, ok := LookupAlgorithm(as.Name); ok && e.PerGraph {
		return s.Knowledge.Grid()
	}
	return []core.Knowledge{{}}
}

// ApproxJobs returns the number of sweep jobs the spec expands into (seed
// grid × repetitions × Σ per-role knowledge-grid width, the baseline
// counted), saturating at math.MaxInt so serving-layer admission checks can
// bound it without overflow. It lives beside the expansion it models: if
// Expand's job shape changes, this estimate must change with it.
func (s *Spec) ApproxJobs() int {
	per := 0
	for _, as := range s.algoSpecs() {
		per = satAddInt(per, len(s.knowledgeGrid(as)))
	}
	return satMulInt(satMulInt(len(s.seeds()), s.repeat()), per)
}

// Parse decodes and validates one scenario spec from raw JSON. Unknown
// fields and trailing data are errors: a typoed key in a committed corpus —
// or in a client request to the serving layer, which parses request bodies
// through exactly this path — must fail loudly, not silently fall back to a
// default.
func Parse(data []byte) (*Spec, error) {
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	var s Spec
	if err := dec.Decode(&s); err != nil {
		return nil, err
	}
	var trailing json.RawMessage
	if err := dec.Decode(&trailing); err != io.EOF {
		return nil, fmt.Errorf("trailing data after scenario object")
	}
	// An empty list means the same as an omitted one; keep the omitted form
	// so a parsed spec re-marshals (dropping empty lists) and re-parses to
	// itself.
	if len(s.Seeds) == 0 {
		s.Seeds = nil
	}
	if len(s.Knowledge.Looseness) == 0 {
		s.Knowledge.Looseness = nil
	}
	if err := s.Validate(); err != nil {
		return nil, err
	}
	return &s, nil
}

// LoadFile parses and validates one scenario file via Parse, prefixing
// problems with the path.
func LoadFile(path string) (*Spec, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	s, err := Parse(data)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return s, nil
}

// Files lists the scenario files of dir (*.json, sorted by name).
func Files(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var out []string
	for _, e := range entries {
		if e.IsDir() || filepath.Ext(e.Name()) != ".json" {
			continue
		}
		out = append(out, filepath.Join(dir, e.Name()))
	}
	sort.Strings(out)
	return out, nil
}

// FileResult is the outcome of loading one scenario file during LintDir.
type FileResult struct {
	Path string
	// Spec is the loaded scenario, nil when Err is set.
	Spec *Spec
	// Err is the load/validation problem, including cross-file ones
	// (duplicate names are reported on the later file).
	Err error
}

// LintDir loads every scenario file of dir in name order, continuing past
// per-file problems so a validator can report all of them, and checks the
// cross-file invariants (at least one scenario, unique names). The returned
// error covers only directory-level failures.
func LintDir(dir string) ([]FileResult, error) {
	paths, err := Files(dir)
	if err != nil {
		return nil, err
	}
	if len(paths) == 0 {
		return nil, fmt.Errorf("scenario: no *.json files in %s", dir)
	}
	results := make([]FileResult, 0, len(paths))
	byName := make(map[string]string, len(paths))
	for _, p := range paths {
		s, err := LoadFile(p)
		if err == nil {
			if prev, dup := byName[s.Name]; dup {
				s, err = nil, fmt.Errorf("%s: scenario name %q already used by %s", p, s.Name, prev)
			} else {
				byName[s.Name] = p
			}
		}
		results = append(results, FileResult{Path: p, Spec: s, Err: err})
	}
	return results, nil
}

// LoadDir loads every scenario file of dir in name order, failing on the
// first problem LintDir finds.
func LoadDir(dir string) ([]*Spec, error) {
	results, err := LintDir(dir)
	if err != nil {
		return nil, err
	}
	specs := make([]*Spec, 0, len(results))
	for _, r := range results {
		if r.Err != nil {
			return nil, r.Err
		}
		specs = append(specs, r.Spec)
	}
	return specs, nil
}
