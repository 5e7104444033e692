// Package reduce provides deterministic color-reduction algorithms in the
// LOCAL model, the second half of the coloring/MIS stack behind the
// Barenboim–Elkin/Kuhn rows of Table 1:
//
//   - Batched(k, λ, Δ̃): one pass over the color classes in batches of λ,
//     mapping a proper k-coloring to a proper λ(Δ̃+1)-coloring in
//     ceil(k/λ)+1 rounds. Within a batch, nodes with batch offset j choose
//     from the private palette P_j = {j(Δ̃+1)+1, ..., (j+1)(Δ̃+1)}, so batch
//     members never collide with each other, and at most Δ̃ already-final
//     neighbours can block colors of P_j. This realises the paper's
//     λ(Δ+1)-coloring trade-off row (with rounds O(Δ̃²/λ) from the Linial
//     palette instead of Kuhn's O(Δ̃/λ); see DESIGN.md §4).
//
//   - ToDeltaPlusOne(k, Δ̃): iterated halving via Batched with
//     λ_t = ceil(k_t / (2(Δ̃+1))), reaching palette Δ̃+1 in O(Δ̃ log Δ̃)
//     rounds overall.
//
//   - MISByColor(k): the classical reduction from a proper k-coloring to a
//     maximal independent set in k+1 rounds (color classes join greedily).
//
// All algorithms are non-uniform (their schedules depend on the guesses) but
// always terminate within their announced round bounds; under bad guesses
// the output may be invalid, which is the contract the paper's transformers
// require.
package reduce

import (
	"fmt"

	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
)

// Batched returns the one-pass batched reduction from palette [1,k] to
// palette [1, λ(Δ̃+1)]. The node input must be its current color (int); the
// output is the new color (int).
func Batched(k, lambda, deltaHat int) local.Algorithm {
	k, lambda, deltaHat = clampParams(k, lambda, deltaHat)
	return local.AlgorithmFunc{
		AlgoName: fmt.Sprintf("reduce-batched(k=%d,λ=%d)", k, lambda),
		NewNode: func(info local.Info) local.Node {
			return &batchNode{info: info, k: k, lambda: lambda, deltaHat: deltaHat,
				color: inputColor(info, k)}
		},
	}
}

// BatchedRounds returns the exact running time of Batched(k, λ, Δ̃).
func BatchedRounds(k, lambda, deltaHat int) int {
	k, lambda, _ = clampParams(k, lambda, deltaHat)
	return mathutil.CeilDiv(k, lambda) + 1
}

// BatchedPalette returns the output palette size λ(Δ̃+1).
func BatchedPalette(lambda, deltaHat int) int {
	_, lambda, deltaHat = clampParams(1, lambda, deltaHat)
	return lambda * (deltaHat + 1)
}

func clampParams(k, lambda, deltaHat int) (int, int, int) {
	if k < 1 {
		k = 1
	}
	if lambda < 1 {
		lambda = 1
	}
	if deltaHat < 0 {
		deltaHat = 0
	}
	return k, lambda, deltaHat
}

// inputColor extracts the node's current color from its input, clamped to
// [1, k] so that bad guesses still yield a terminating execution.
func inputColor(info local.Info, k int) int {
	c, ok := info.Input.(int)
	if !ok {
		if c64, ok64 := info.Input.(int64); ok64 && c64 <= int64(1)<<62 {
			c = int(c64)
		} else {
			c = 1
		}
	}
	if c < 1 {
		c = 1
	}
	if c > k {
		c = k
	}
	return c
}

// batchMsg announces a finalized color.
type batchMsg struct{ color int }

type batchNode struct {
	info     local.Info
	k        int
	lambda   int
	deltaHat int
	color    int
	taken    map[int]bool // colors already fixed by neighbours
}

// Round r >= 1 handles batch r-1; a node terminates right after fixing its
// color (its announcement is still delivered), so the pass lasts
// ceil(k/λ)+1 rounds in the worst case.
func (n *batchNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	if n.taken == nil {
		n.taken = make(map[int]bool, n.info.Degree)
	}
	for _, m := range recv {
		if bm, ok := m.(batchMsg); ok {
			n.taken[bm.color] = true
		}
	}
	if r == 0 {
		// Spacing round: announcements of batch b are consumed in round b+2.
		return nil, false
	}
	if myBatch := (n.color - 1) / n.lambda; myBatch == r-1 {
		j := (n.color - 1) % n.lambda
		base := j * (n.deltaHat + 1)
		picked := base + 1
		for c := base + 1; c <= base+n.deltaHat+1; c++ {
			if !n.taken[c] {
				picked = c
				break
			}
		}
		n.color = picked
		return local.Broadcast(batchMsg{color: picked}, n.info.Degree), true
	}
	return nil, false
}

func (n *batchNode) Output() any { return n.color }

// ToDeltaPlusOne returns the iterated-halving reduction from palette [1, k]
// to palette [1, Δ̃+1]. Input and output are int colors.
func ToDeltaPlusOne(k, deltaHat int) local.Algorithm {
	k, _, deltaHat = clampParams(k, 1, deltaHat)
	var stages []local.Stage
	halvingPasses(k, deltaHat, func(cur, lambda int) {
		stages = append(stages, local.Stage{Algo: Batched(cur, lambda, deltaHat)})
	})
	if len(stages) == 0 {
		return Batched(k, 1, deltaHat) // already at most Δ̃+1 colors: one tidy pass
	}
	return local.Compose(fmt.Sprintf("reduce-to-Δ+1(k=%d,Δ̃=%d)", k, deltaHat), stages...)
}

// halvingPasses calls pass with the input palette and the λ of each Batched
// pass in order. It builds no slice, so the round bound allocates nothing.
func halvingPasses(k, deltaHat int, pass func(cur, lambda int)) {
	for cur := k; cur > deltaHat+1; {
		lambda := max(1, mathutil.CeilDiv(cur, 2*(deltaHat+1)))
		pass(cur, lambda)
		next := BatchedPalette(lambda, deltaHat)
		if next >= cur {
			// No progress is possible only when cur <= 2(Δ̃+1) and λ=1, in
			// which case next = Δ̃+1 < cur; guard anyway.
			break
		}
		cur = next
	}
}

// ToDeltaPlusOneRounds bounds the running time of ToDeltaPlusOne(k, Δ̃).
func ToDeltaPlusOneRounds(k, deltaHat int) int {
	k, _, deltaHat = clampParams(k, 1, deltaHat)
	total := 0
	halvingPasses(k, deltaHat, func(cur, lambda int) {
		total += BatchedRounds(cur, lambda, deltaHat)
	})
	if total == 0 {
		total = BatchedRounds(k, 1, deltaHat)
	}
	return total + 2 // compose slack
}

// MISByColor returns the reduction from a proper coloring with palette
// [1, k] to an MIS: in round c, the undecided nodes of color class c join
// the set unless a neighbour already joined. Input: int color. Output: bool.
func MISByColor(k int) local.Algorithm {
	if k < 1 {
		k = 1
	}
	return local.AlgorithmFunc{
		AlgoName: fmt.Sprintf("mis-by-color(k=%d)", k),
		NewNode: func(info local.Info) local.Node {
			return &misNode{info: info, k: k, color: inputColor(info, k)}
		},
	}
}

// MISByColorRounds returns the exact running time of MISByColor(k).
func MISByColorRounds(k int) int {
	if k < 1 {
		k = 1
	}
	return k + 1
}

type misJoin struct{}

type misNode struct {
	info    local.Info
	k       int
	color   int
	in      bool
	blocked bool
}

// Round c decides color class c; joins announced in round c are consumed by
// later classes in round c+1. A node terminates at its own class round.
func (n *misNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	for _, m := range recv {
		if _, ok := m.(misJoin); ok {
			n.blocked = true
		}
	}
	if r < n.color {
		return nil, false
	}
	if !n.blocked {
		n.in = true
		return local.Broadcast(misJoin{}, n.info.Degree), true
	}
	return nil, true
}

func (n *misNode) Output() any { return n.in }

var (
	_ local.Node = (*batchNode)(nil)
	_ local.Node = (*misNode)(nil)
)
