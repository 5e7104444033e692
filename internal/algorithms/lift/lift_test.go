package lift

import (
	"reflect"
	"slices"
	"sync"
	"testing"

	"github.com/unilocal/unilocal/internal/algorithms/colormis"
	"github.com/unilocal/unilocal/internal/algorithms/linial"
	"github.com/unilocal/unilocal/internal/algorithms/luby"
	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/problems"
)

func hostSuite(t *testing.T) map[string]*graph.Graph {
	t.Helper()
	gnp, err := graph.GNP(60, 0.08, 21)
	if err != nil {
		t.Fatal(err)
	}
	cyc, _ := graph.Cycle(11)
	return map[string]*graph.Graph{
		"path":   graph.Path(9),
		"cycle":  cyc,
		"star":   graph.Star(7),
		"clique": graph.Complete(6),
		"grid":   graph.Grid(4, 5),
		"gnp":    gnp,
		"lonely": graph.Empty(3),
	}
}

// protocol is a lifted run's host-level footprint. The tables below pin
// the lifts' host protocol: a lift that sends on a port or in a round the
// protocol leaves silent changes them.
type protocol struct {
	rounds   int
	messages int64
}

func checkProtocol(t *testing.T, res *local.Result, want protocol) {
	t.Helper()
	if got := (protocol{res.Rounds, res.Messages}); got != want {
		t.Errorf("lifted run: %d rounds, %d messages; want %d, %d", got.rounds, got.messages, want.rounds, want.messages)
	}
}

var lineProtocol = map[string]protocol{
	"clique": {8, 105}, "cycle": {10, 99}, "gnp": {8, 1071}, "grid": {8, 217},
	"lonely": {1, 0}, "path": {10, 66}, "star": {8, 18},
}

// powerProtocol is indexed by k-1.
var powerProtocol = map[string][3]protocol{
	"clique": {{17, 505}, {32, 960}, {48, 960}},
	"cycle":  {{19, 390}, {46, 974}, {69, 1420}},
	"gnp":    {{62, 18534}, {160, 48543}, {306, 93138}},
	"grid":   {{24, 1449}, {64, 3833}, {102, 6125}},
	"lonely": {{9, 0}, {18, 0}, {27, 0}},
	"path":   {{17, 254}, {34, 529}, {54, 821}},
	"star":   {{14, 162}, {38, 437}, {54, 540}},
}

var lineMISProtocol = map[string]protocol{
	"clique": {150, 2098}, "cycle": {48, 443}, "gnp": {434, 62134}, "grid": {104, 2835},
	"lonely": {1, 0}, "path": {46, 287}, "star": {88, 18},
}

var productProtocol = map[string]protocol{
	"clique": {109, 3270}, "cycle": {47, 1022}, "gnp": {255, 77440}, "grid": {68, 4208},
	"lonely": {9, 0}, "path": {47, 739}, "star": {140, 1674},
}

// TestLineLiftMatchesExplicitLineGraph checks the lift's defining property:
// running a deterministic algorithm through the lift produces exactly the
// outputs of running it directly on the explicit line graph.
func TestLineLiftMatchesExplicitLineGraph(t *testing.T) {
	for name, g := range hostSuite(t) {
		t.Run(name, func(t *testing.T) {
			lg, edges, err := graph.LineGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			deltaL := lg.MaxDegree()
			mL := lg.MaxIDValue()
			if mL == 0 {
				mL = 1
			}
			algo := linial.New(deltaL, mL)

			direct, err := local.Run(lg, algo, local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			lifted, err := local.Run(g, LineGraph(algo, nil), local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkProtocol(t, lifted, lineProtocol[name])
			checkLineOutputs(t, g, edges, direct, lifted)
		})
	}
}

// checkLineOutputs compares per-edge outputs: the lift reports, at each
// host node, the output of each incident edge by port.
func checkLineOutputs(t *testing.T, g *graph.Graph, edges []graph.Edge, direct, lifted *local.Result) {
	t.Helper()
	for i, e := range edges {
		u := int(e.U)
		p := -1
		for q := 0; q < g.Degree(u); q++ {
			if g.Neighbor(u, q) == int(e.V) {
				p = q
				break
			}
		}
		got := lifted.Outputs[u].([]any)[p]
		want := direct.Outputs[i]
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("edge %v: lifted output %v != direct output %v", e, got, want)
		}
	}
	// Both endpoints must agree on each edge's output.
	for u := 0; u < g.N(); u++ {
		outs := lifted.Outputs[u].([]any)
		for p := 0; p < g.Degree(u); p++ {
			v := g.Neighbor(u, p)
			back := g.BackPort(u, p)
			if !reflect.DeepEqual(outs[p], lifted.Outputs[v].([]any)[back]) {
				t.Fatalf("endpoints of edge %d-%d disagree", u, v)
			}
		}
	}
}

func TestLineLiftRoundsOverhead(t *testing.T) {
	g := graph.Grid(6, 6)
	lg, _, err := graph.LineGraph(g)
	if err != nil {
		t.Fatal(err)
	}
	algo := linial.New(lg.MaxDegree(), lg.MaxIDValue())
	direct, err := local.Run(lg, algo, local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	lifted, err := local.Run(g, LineGraph(algo, nil), local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if limit := 2*direct.Rounds + 4; lifted.Rounds > limit {
		t.Errorf("lifted %d rounds > 2x direct %d + 4", lifted.Rounds, direct.Rounds)
	}
}

// TestLineLiftMatching runs colormis through the line lift: the MIS of
// L(G) is a maximal matching of G.
func TestLineLiftMatching(t *testing.T) {
	for name, g := range hostSuite(t) {
		t.Run(name, func(t *testing.T) {
			lg, _, err := graph.LineGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			deltaL := lg.MaxDegree()
			mL := lg.MaxIDValue()
			if mL == 0 {
				mL = 1
			}
			lifted, err := local.Run(g, LineGraph(colormis.New(deltaL, mL), nil), local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkProtocol(t, lifted, lineMISProtocol[name])
			// Translate per-port MIS bits into matching claims.
			y := make([]any, g.N())
			for u := 0; u < g.N(); u++ {
				claim := problems.EdgeClaim{}
				outs := lifted.Outputs[u].([]any)
				for p := 0; p < g.Degree(u); p++ {
					if in, ok := outs[p].(bool); ok && in {
						claim = problems.NewEdgeClaim(g.ID(u), g.ID(g.Neighbor(u, p)))
						break
					}
				}
				y[u] = claim
			}
			if err := problems.ValidMaximalMatching(g, y); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestPowerLiftMatchesExplicitPower(t *testing.T) {
	for name, g := range hostSuite(t) {
		for _, k := range []int{1, 2, 3} {
			t.Run(name, func(t *testing.T) {
				pg, err := graph.Power(g, k)
				if err != nil {
					t.Fatal(err)
				}
				algo := colormis.New(pg.MaxDegree(), pg.MaxIDValue())
				direct, err := local.Run(pg, algo, local.Options{})
				if err != nil {
					t.Fatal(err)
				}
				lifted, err := local.Run(g, Power(k, algo), local.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(direct.Outputs, lifted.Outputs) {
					t.Fatalf("k=%d: lifted outputs differ from direct outputs", k)
				}
				if limit := (k+1)*direct.Rounds + 3*k + 4; lifted.Rounds > limit {
					t.Errorf("k=%d: lifted %d rounds > limit %d (direct %d)", k, lifted.Rounds, limit, direct.Rounds)
				}
				checkProtocol(t, lifted, powerProtocol[name][k-1])
			})
		}
	}
}

func TestPowerLiftLubyRulingSet(t *testing.T) {
	g, err := graph.GNP(120, 0.05, 33)
	if err != nil {
		t.Fatal(err)
	}
	const beta = 2
	res, err := local.Run(g, Power(beta, luby.New()), local.Options{Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	in, err := problems.Bools(res.Outputs)
	if err != nil {
		t.Fatal(err)
	}
	// MIS of G^β is a (2,β)-ruling set of G (in fact (β+1,β)).
	if err := problems.ValidRulingSet(g, in, 2, beta); err != nil {
		t.Fatal(err)
	}
	if err := problems.ValidRulingSet(g, in, beta+1, beta); err != nil {
		t.Fatal(err)
	}
}

func TestProductLiftMatchesExplicitProduct(t *testing.T) {
	for name, g := range hostSuite(t) {
		t.Run(name, func(t *testing.T) {
			pg, copies, err := graph.ProductDegPlusOne(g)
			if err != nil {
				t.Fatal(err)
			}
			algo := colormis.New(pg.MaxDegree(), pg.MaxIDValue())
			direct, err := local.Run(pg, algo, local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			lifted, err := local.Run(g, Product(algo), local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			checkProtocol(t, lifted, productProtocol[name])
			checkProductOutputs(t, copies, direct, lifted)
		})
	}
}

func checkProductOutputs(t *testing.T, copies []graph.CliqueCopy, direct, lifted *local.Result) {
	t.Helper()
	for idx, c := range copies {
		got := lifted.Outputs[c.V].([]any)[c.I-1]
		if !reflect.DeepEqual(got, direct.Outputs[idx]) {
			t.Fatalf("copy %+v: lifted %v != direct %v", c, got, direct.Outputs[idx])
		}
	}
}

// TestProductLiftGivesColoring verifies the Section 5.1 correspondence on
// the lifted side: an MIS of the product graph selects exactly one copy per
// clique, and the selected indices form a (deg+1)-coloring.
func TestProductLiftGivesColoring(t *testing.T) {
	g, err := graph.GNP(80, 0.07, 41)
	if err != nil {
		t.Fatal(err)
	}
	pg, _, err := graph.ProductDegPlusOne(g)
	if err != nil {
		t.Fatal(err)
	}
	res, err := local.Run(g, Product(colormis.New(pg.MaxDegree(), pg.MaxIDValue())), local.Options{})
	if err != nil {
		t.Fatal(err)
	}
	colors := make([]int, g.N())
	for u := 0; u < g.N(); u++ {
		outs := res.Outputs[u].([]any)
		for i, o := range outs {
			if in, ok := o.(bool); ok && in {
				if colors[u] != 0 {
					t.Fatalf("node %d has two selected copies", u)
				}
				colors[u] = i + 1
			}
		}
		if colors[u] == 0 {
			t.Fatalf("node %d has no selected copy", u)
		}
		if colors[u] > g.Degree(u)+1 {
			t.Fatalf("node %d color %d exceeds deg+1", u, colors[u])
		}
	}
	if err := problems.ValidColoring(g, colors, g.MaxDegree()+1); err != nil {
		t.Fatal(err)
	}
}

// keeper wraps a lift so that its hosts keep every lane region they
// receive, with a snapshot of its contents taken on receipt.
type keeper struct {
	mu   sync.Mutex
	kept map[*lanes]lanes
}

func (k *keeper) wrap(a local.Algorithm) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: a.Name(),
		NewNode: func(info local.Info) local.Node {
			return &keeperNode{k: k, inner: a.New(info)}
		},
	}
}

// check fails if a kept region changed after it was received.
func (k *keeper) check(t *testing.T) {
	t.Helper()
	for l, snap := range k.kept {
		if !reflect.DeepEqual(*l, snap) {
			t.Fatalf("a received lane region was rewritten: %v, was %v", l.msgs, snap.msgs)
		}
	}
}

type keeperNode struct {
	k     *keeper
	inner local.Node
}

func (n *keeperNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	for _, m := range recv {
		if l, ok := m.(*lanes); ok {
			n.k.mu.Lock()
			if _, seen := n.k.kept[l]; !seen {
				snap := *l
				snap.msgs = slices.Clone(l.msgs)
				n.k.kept[l] = snap
			}
			n.k.mu.Unlock()
		}
	}
	return n.inner.Round(r, recv)
}

func (n *keeperNode) Output() any { return n.inner.Output() }

// TestLiftsKeepSentMessages checks the retention contract of local.Node:
// a receiver may keep the messages it is sent, so a lift must never write
// a lane again once it is sent. Every host keeps every region it receives,
// under staggered wake-up (the α-synchronizer buffers a neighbour's early
// bundles across rounds), a delivery permutation and parallel workers.
// The kept regions must be unchanged at the end of the run, and the lifted
// outputs must still be those of the explicit derived graph.
func TestLiftsKeepSentMessages(t *testing.T) {
	opts := local.Options{Seed: 3, Workers: 4, Permute: &local.Permute{Seed: 11}, MaxRounds: 1 << 14}
	for name, g := range hostSuite(t) {
		t.Run(name, func(t *testing.T) {
			lg, edges, err := graph.LineGraph(g)
			if err != nil {
				t.Fatal(err)
			}
			lineMIS := colormis.New(lg.MaxDegree(), max(lg.MaxIDValue(), 1))
			direct, err := local.Run(lg, lineMIS, local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			k := keeper{kept: map[*lanes]lanes{}}
			lifted, err := local.Run(g, local.StaggeredWakeup(k.wrap(LineGraph(lineMIS, nil)), 5, 6), opts)
			if err != nil {
				t.Fatal(err)
			}
			k.check(t)
			checkLineOutputs(t, g, edges, direct, lifted)

			pg, copies, err := graph.ProductDegPlusOne(g)
			if err != nil {
				t.Fatal(err)
			}
			productMIS := colormis.New(pg.MaxDegree(), pg.MaxIDValue())
			direct, err = local.Run(pg, productMIS, local.Options{})
			if err != nil {
				t.Fatal(err)
			}
			k = keeper{kept: map[*lanes]lanes{}}
			lifted, err = local.Run(g, local.StaggeredWakeup(k.wrap(Product(productMIS)), 5, 6), opts)
			if err != nil {
				t.Fatal(err)
			}
			k.check(t)
			checkProductOutputs(t, copies, direct, lifted)
		})
	}
}
