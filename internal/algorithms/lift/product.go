package lift

import (
	"cmp"
	"slices"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// Product returns an algorithm that simulates algo on the clique product
// G × K_{deg+1} of Section 5.1 of the paper: every host node simulates
// deg+1 copies of itself; copies of one node form a clique, and copy i of u
// is adjacent to copy i of each neighbour v with i <= 1 + min(deg u,
// deg v). One virtual round costs one host round; setup costs one round to
// exchange degrees.
//
// Copy i of host u carries identity graph.PackIDs(Id(u), i), matching
// graph.ProductDegPlusOne. The host output is a []any with the outputs of
// copies 1..deg+1 in order.
func Product(algo local.Algorithm) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: "product(" + algo.Name() + ")",
		NewNode: func(info local.Info) local.Node {
			return &productNode{info: info, algo: algo, hostSeed: int64(info.Rand.Uint64())}
		},
	}
}

// productNode hosts copies 1..deg+1 (virtual node k is copy k+1). Every
// round it ships its one lane region to every neighbour: position i-1 of
// the lane for neighbour v carries copy i's message to v's copy i, for
// i <= 1+min(deg u, deg v), and the status slot reports that every copy of
// the sender has terminated.
type productNode struct {
	info     local.Info
	algo     local.Algorithm
	hostSeed int64

	sim     sim
	nbrDone []bool
	send    []local.Message
}

// allDone is the status slot of a host whose copies have all terminated.
var allDone local.Message = struct{}{}

func (n *productNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	if r == 0 {
		// Setup: broadcast my neighbour list, which gives my degree too.
		return local.Broadcast(append([]int64(nil), n.info.Neighbors...), n.info.Degree), false
	}
	if r == 1 {
		n.setup(recv)
	} else {
		for p, m := range recv {
			if l, ok := m.(*lanes); ok && n.sim.take(p, 0, l) != nil {
				n.nbrDone[p] = true
			}
		}
	}
	n.sim.open()
	n.sim.stepAll()
	done := !slices.ContainsFunc(n.sim.vs, func(v vnode) bool { return !v.done })
	// Once every copy has terminated, keep pulsing the status until the
	// neighbourhood has finished, so late neighbours still learn it.
	finished := done && !slices.Contains(n.nbrDone, false)
	if len(n.send) == 0 {
		return nil, finished
	}
	l := new(lanes)
	for p := range n.send {
		if done {
			n.sim.out[0][n.sim.at.hi[p]-1] = allDone
		}
		n.send[p] = l
	}
	n.sim.ship(0, l)
	return n.send, finished
}

// setup instantiates the copies and their routes. Copy i's ports are its
// cross neighbours below my identity, then its siblings in copy order, then
// its cross neighbours above, which is identity order.
func (n *productNode) setup(recv []local.Message) {
	me, nb := n.info.ID, n.info.Neighbors
	deg := len(nb)
	n.nbrDone = make([]bool, deg)
	n.send = make([]local.Message, deg)
	n.sim.wire(me, recv, func(_ int, list []int64) (int, int) { return 0, min(deg, len(list)) + 1 })
	order := make([]int32, deg) // ports in identity order
	for p := range order {
		order[p] = int32(p)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(nb[a], nb[b]) })
	cross := func(p int32, i int) bool { return int32(i) < n.sim.at.hi[p]-n.sim.at.lo[p] }

	// below[i-1] counts copy i's cross neighbours below me.
	below := make([]int32, deg+1)
	slots := 0
	for i := 1; i <= deg+1; i++ {
		for _, p := range order {
			if cross(p, i) {
				slots++
				if nb[p] < me {
					below[i-1]++
				}
			}
		}
		slots += deg
	}
	n.sim.reserve(deg+1, slots)
	ids := make([]int64, slots)
	s := 0
	for i := 1; i <= deg+1; i++ {
		base := s
		addCross := func(low bool) {
			for _, p := range order {
				if (nb[p] < me) == low && cross(p, i) {
					ids[s] = graph.PackIDs(nb[p], int64(i))
					pos := n.sim.at.lo[p] + int32(i-1)
					n.sim.route[s] = lanePos(0, pos)
					n.sim.in[0][pos] = int32(s)
					s++
				}
			}
		}
		addCross(true)
		for j := 1; j <= deg+1; j++ {
			if j != i {
				ids[s] = graph.PackIDs(me, int64(j))
				s++
			}
		}
		addCross(false)
		vid := graph.PackIDs(me, int64(i))
		n.sim.add(n.algo, vid, ids[base:s:s], n.info.Input, childRand(n.hostSeed, vid))
	}
	// sibling is the inbox slot of copy i among copy j's ports.
	sibling := func(i, j int) int32 {
		pos := i - 1
		if i > j {
			pos--
		}
		return int32(n.sim.vs[j-1].off) + below[j-1] + int32(pos)
	}
	for i := 1; i <= deg+1; i++ {
		for j := 1; j <= deg+1; j++ {
			if j != i {
				n.sim.route[sibling(j, i)] = sibling(i, j)
			}
		}
	}
}

// Output returns the outputs of copies 1..deg+1.
func (n *productNode) Output() any {
	outs := make([]any, len(n.sim.vs))
	for i, v := range n.sim.vs {
		outs[i] = v.out
	}
	return outs
}

var _ local.Node = (*productNode)(nil)
