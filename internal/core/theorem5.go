package core

import (
	"fmt"
	"sync"

	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
	"github.com/unilocal/unilocal/internal/problems"
)

// This file implements Section 5.2 of the paper (Theorem 5): the strong
// list coloring (SLC) problem, its pruning algorithm, the degree layering
// D_1 = 1, D_{i+1} = min{l : g(l) >= 2 g(D_i)}, and the two-phase
// construction that turns a non-uniform g(Δ̃)-coloring algorithm into a
// uniform O(g(Δ))-coloring algorithm.

// SLCInput is the input of the strong list coloring problem at one node:
// the degree estimate Δ̂ shared by its layer, the palette bound Ĝ = g(Δ̂),
// and the set of removed colors. The implicit list is
// L(v) = [1,Ĝ] x [1,Δ̂+1] minus Removed; the SLC invariant maintained by
// the pruner is that every base color retains at least deg(v)+1 indices.
// SLCInput values are shared in messages and must be treated as immutable.
type SLCInput struct {
	DeltaHat int
	GHat     int
	Removed  map[problems.SLCColor]bool
}

// InList reports whether the color is in the node's list.
func (in *SLCInput) InList(c problems.SLCColor) bool {
	return c.C >= 1 && c.C <= in.GHat && c.J >= 1 && c.J <= in.DeltaHat+1 && !in.Removed[c]
}

// withRemoved returns a copy of the input with extra colors removed.
func (in *SLCInput) withRemoved(extra []problems.SLCColor) *SLCInput {
	out := &SLCInput{DeltaHat: in.DeltaHat, GHat: in.GHat,
		Removed: make(map[problems.SLCColor]bool, len(in.Removed)+len(extra))}
	for c := range in.Removed {
		out.Removed[c] = true
	}
	for _, c := range extra {
		out.Removed[c] = true
	}
	return out
}

// sameInstance reports whether two SLC inputs belong to the same layer
// instance.
func sameInstance(a, b *SLCInput) bool {
	return a != nil && b != nil && a.DeltaHat == b.DeltaHat && a.GHat == b.GHat
}

// SLCPruner returns the pruning algorithm for strong list coloring from the
// proof of Theorem 5: a node is pruned iff its tentative color lies in its
// list and differs from the tentative colors of all neighbours of its layer
// instance; survivors remove the pruned neighbours' colors from their
// lists. It is monotone with respect to the layer parameters (inputs keep
// their Δ̂) and with respect to every non-decreasing graph parameter.
func SLCPruner() Pruner { return slcPruner{} }

type slcPruner struct{}

func (slcPruner) Name() string { return "P_SLC" }

// Radius is 2: deciding whether a neighbour is pruned needs that
// neighbour's neighbourhood.
func (slcPruner) Radius() int { return 2 }

func (p slcPruner) Decide(b *Ball) Decision {
	c := b.Center()
	if p.pruned(b, c) {
		return Decision{Prune: true}
	}
	in, ok := c.Input.(*SLCInput)
	if !ok {
		return Decision{}
	}
	var removed []problems.SLCColor
	for _, nbid := range c.Neighbors {
		nb := b.Get(nbid)
		if nb == nil || !p.pruned(b, nb) {
			continue
		}
		nbin, okIn := nb.Input.(*SLCInput)
		if !okIn || !sameInstance(in, nbin) {
			continue
		}
		if col, okC := nb.Tentative.(problems.SLCColor); okC {
			removed = append(removed, col)
		}
	}
	if len(removed) == 0 {
		return Decision{}
	}
	return Decision{NewInput: in.withRemoved(removed)}
}

// pruned evaluates the prune predicate for any record whose neighbourhood
// is inside the ball.
func (slcPruner) pruned(b *Ball, x *BallRecord) bool {
	in, ok := x.Input.(*SLCInput)
	if !ok {
		return false
	}
	col, ok := x.Tentative.(problems.SLCColor)
	if !ok || !in.InList(col) {
		return false
	}
	for _, nbid := range x.Neighbors {
		nb := b.Get(nbid)
		if nb == nil {
			continue
		}
		nbin, okIn := nb.Input.(*SLCInput)
		if !okIn || !sameInstance(in, nbin) {
			continue
		}
		if nbcol, okC := nb.Tentative.(problems.SLCColor); okC && nbcol == col {
			return false
		}
	}
	return true
}

var _ Pruner = slcPruner{}

// ColoringEngine is a non-uniform coloring algorithm consumed by Theorem 5:
// New(Δ̃, m̃) colors with palette [1, G(Δ̃)] in at most
// BoundDelta(Δ̃)+BoundM(m̃) rounds, treating an int node input as initial
// color (identities by default). G must be moderately-fast (Section 2).
type ColoringEngine interface {
	Name() string
	G(delta int) int
	New(deltaHat int, mHat int64) local.Algorithm
	BoundDelta(d int) int
	BoundM(m int) int
}

// Layers computes the degree thresholds D_1, D_2, ... of the proof of
// Theorem 5 for the palette bound g.
func Layers(g func(int) int) []int {
	ds := []int{1}
	for len(ds) < 128 {
		last := ds[len(ds)-1]
		// Stop before saturated palette arithmetic can stall the doubling;
		// degrees beyond the final threshold fall back to Δ̂ = deg+1.
		if last >= GuessCap/4 || g(last) >= mathutil.MaxRoundBudget/4 {
			break
		}
		target := mathutil.SatMul(2, g(last))
		// Smallest l with g(l) >= target.
		lo, hi := last, last
		for g(hi) < target && hi < GuessCap/4 {
			hi *= 2
		}
		for lo+1 < hi {
			mid := lo + (hi-lo)/2
			if g(mid) >= target {
				hi = mid
			} else {
				lo = mid
			}
		}
		if g(hi) < target {
			break
		}
		ds = append(ds, hi)
	}
	return ds
}

// layerIndex returns i such that D_i <= max(deg,1) < D_{i+1}, together with
// the degree estimate Δ̂_i = D_{i+1}.
func layerIndex(ds []int, deg int) (int, int) {
	if deg < 1 {
		deg = 1
	}
	i := 0
	for i+1 < len(ds) && ds[i+1] <= deg {
		i++
	}
	deltaHat := deg + 1
	if i+1 < len(ds) {
		deltaHat = ds[i+1]
	}
	return i, deltaHat
}

// UniformColoringPalette bounds the number of colors used by
// UniformColoring(engine) on graphs with maximum degree maxDeg: colors lie
// in (g(Δ̂), 2g(Δ̂)] per layer, so the total is at most 2g(D_{i_max+1}).
func UniformColoringPalette(engine ColoringEngine, maxDeg int) int {
	ds := Layers(engine.G)
	_, deltaHat := layerIndex(ds, maxDeg)
	return 2 * engine.G(deltaHat)
}

// UniformColoring applies Theorem 5 to the engine, producing a uniform
// O(g(Δ))-coloring algorithm (output: int color). It verifies numerically
// that g is moderately-fast.
func UniformColoring(engine ColoringEngine) (local.Algorithm, error) {
	if !IsModeratelyFast(engine.G, 16, 8, 1<<12) {
		return nil, fmt.Errorf("core: palette bound of %s is not moderately-fast", engine.Name())
	}
	ds := Layers(engine.G)

	// Phase 1: uniform SLC via Theorem 1 (Γ = {Δ̂-instance-max, m}; the
	// degree guess only sizes the budget, every node reads its own Δ̂ from
	// its input).
	slcNU := NonUniformFunc{
		AlgoName: "slc(" + engine.Name() + ")",
		Needs:    []Param{ParamMaxDegree, ParamMaxID},
		Build: func(p Params) local.Algorithm {
			return slcSolver(engine, p.M)
		},
	}
	seq := Additive(
		func(d int) int { return mathutil.SatAdd(engine.BoundDelta(d), 8) },
		engine.BoundM,
	)
	phase1 := Uniform(slcNU, seq, SLCPruner())
	phase1WithInput := local.AlgorithmFunc{
		AlgoName: phase1.Name(),
		NewNode: func(info local.Info) local.Node {
			_, deltaHat := layerIndex(ds, info.Degree)
			info.Input = &SLCInput{DeltaHat: deltaHat, GHat: engine.G(deltaHat)}
			return phase1.New(info)
		},
	}

	relist := &engineTable{build: func(deltaHat int) local.Algorithm {
		return engine.New(deltaHat, relistM(engine, deltaHat))
	}}
	phase2 := local.AlgorithmFunc{
		AlgoName: "relist(" + engine.Name() + ")",
		NewNode: func(info local.Info) local.Node {
			return newPhase2Node(engine, ds, relist, info)
		},
	}
	return local.Compose("theorem5("+engine.Name()+")",
		local.Stage{Algo: phase1WithInput, MakeInput: func(orig, _ any) any { return orig }},
		local.Stage{Algo: phase2},
	), nil
}

// engineTable shares the engine's algorithms among the nodes of a phase.
// Within a phase the algorithm depends on the degree estimate Δ̂ alone, so
// it is built once per Δ̂ instead of once per node. Which estimates occur
// depends on the graph, so entries are built on first use; nodes start their
// inner runs in parallel, hence the sync.Map. Keys are the layer thresholds
// D_i (plus deg+1 past the last one), so the table stays small.
type engineTable struct {
	build func(deltaHat int) local.Algorithm
	algos sync.Map // deltaHat int -> local.Algorithm
}

func (t *engineTable) get(deltaHat int) local.Algorithm {
	if a, ok := t.algos.Load(deltaHat); ok {
		return a.(local.Algorithm)
	}
	a, _ := t.algos.LoadOrStore(deltaHat, t.build(deltaHat))
	return a.(local.Algorithm)
}

// maskKey is exchanged in round 0 of the masked sub-executions.
type maskKey struct {
	deltaHat int
}

// slcSolver adapts the engine to the SLC problem: run the engine with the
// node's own Δ̂ and the guessed m̃, masked to the same layer instance, then
// project the color into the list.
func slcSolver(engine ColoringEngine, mHat int64) local.Algorithm {
	solvers := &engineTable{build: func(deltaHat int) local.Algorithm {
		return engine.New(deltaHat, mHat)
	}}
	return local.AlgorithmFunc{
		AlgoName: "slc-solve(" + engine.Name() + ")",
		NewNode: func(info local.Info) local.Node {
			in, _ := info.Input.(*SLCInput)
			return &maskedNode{
				info: info,
				key:  slcKey(in),
				makeInner: func(ports []int, ids []int64) local.Node {
					dh := 0
					if in != nil {
						dh = in.DeltaHat
					}
					return solvers.get(dh).New(local.Info{
						ID: info.ID, Degree: len(ports), Neighbors: ids,
						Rand: local.DeriveRand(int64(info.Rand.Uint64()), info.ID, 5),
					})
				},
				project: func(out any) any {
					return projectSLC(in, out)
				},
			}
		},
	}
}

func slcKey(in *SLCInput) maskKey {
	if in == nil {
		return maskKey{deltaHat: -1}
	}
	return maskKey{deltaHat: in.DeltaHat}
}

// projectSLC maps an engine color to a list color (c, min j available).
func projectSLC(in *SLCInput, out any) any {
	if in == nil {
		return nil
	}
	c, ok := out.(int)
	if !ok || c < 1 || c > in.GHat {
		c = 1
	}
	for j := 1; j <= in.DeltaHat+1; j++ {
		col := problems.SLCColor{C: c, J: j}
		if in.InList(col) {
			return col
		}
	}
	return problems.SLCColor{C: c, J: 1}
}

// relistM is the identity bound of phase 2 in the layer with estimate Δ̂:
// encoded list colors lie in [1, g(Δ̂)·(Δ̂+1)].
func relistM(engine ColoringEngine, deltaHat int) int64 {
	return int64(engine.G(deltaHat)) * int64(deltaHat+1)
}

// newPhase2Node recolors within the layer: the phase-1 list color, encoded
// as an integer, seeds a fresh engine run with guesses derived from the
// layer alone (relist holds engine.New(Δ̂, relistM(Δ̂)) per Δ̂); the final
// color is offset into the layer's private range (g(Δ̂), 2g(Δ̂)].
func newPhase2Node(engine ColoringEngine, ds []int, relist *engineTable, info local.Info) local.Node {
	_, deltaHat := layerIndex(ds, info.Degree)
	gHat := engine.G(deltaHat)
	col, _ := info.Input.(problems.SLCColor)
	encoded := (col.C-1)*(deltaHat+1) + col.J
	if encoded < 1 {
		encoded = 1
	}
	return &maskedNode{
		info: info,
		key:  maskKey{deltaHat: deltaHat},
		makeInner: func(ports []int, ids []int64) local.Node {
			return relist.get(deltaHat).New(local.Info{
				ID: info.ID, Degree: len(ports), Neighbors: ids,
				Input: encoded,
				Rand:  local.DeriveRand(int64(info.Rand.Uint64()), info.ID, 7),
			})
		},
		project: func(out any) any {
			c, ok := out.(int)
			if !ok || c < 1 || c > gHat {
				c = 1
			}
			return gHat + c
		},
	}
}

// maskedNode exchanges mask keys in round 0 and then drives an inner node
// over the ports whose neighbours share the key, projecting the inner
// output on termination.
type maskedNode struct {
	info      local.Info
	key       maskKey
	makeInner func(ports []int, ids []int64) local.Node
	project   func(out any) any

	sub *local.Subrun
	out any
}

func (n *maskedNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	if r == 0 {
		return local.Broadcast(n.key, n.info.Degree), false
	}
	if r == 1 {
		ports := make([]int, 0, n.info.Degree)
		ids := make([]int64, 0, n.info.Degree)
		for p, m := range recv {
			if k, ok := m.(maskKey); ok && k == n.key {
				ports = append(ports, p)
				ids = append(ids, n.info.Neighbors[p])
			}
		}
		n.sub = local.NewSubrun(n.makeInner(ports, ids), ports)
		send := n.sub.Step(make([]local.Message, n.info.Degree), n.info.Degree)
		return send, n.finishIfDone()
	}
	send := n.sub.Step(recv, n.info.Degree)
	return send, n.finishIfDone()
}

func (n *maskedNode) finishIfDone() bool {
	if !n.sub.Done() {
		return false
	}
	n.out = n.project(n.sub.Output())
	return true
}

func (n *maskedNode) Output() any {
	if n.out != nil {
		return n.out
	}
	if n.sub != nil {
		return n.project(n.sub.Output())
	}
	return nil
}

var _ local.Node = (*maskedNode)(nil)
