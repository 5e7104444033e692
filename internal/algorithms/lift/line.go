package lift

import (
	"cmp"
	"slices"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// LineGraph returns an algorithm that simulates algo on the line graph
// L(G) of the host graph. Each edge {u, v} is one virtual node, owned by
// its smaller-identity endpoint and carrying identity
// graph.PackIDs(min, max). One virtual round costs two host rounds (owner →
// shared endpoint → owner).
//
// The host output at every node is a []any with one entry per host port:
// the final output of the virtual node simulating that incident edge.
// Virtual inputs are the virtual identities (InputFn may override this by
// mapping the two endpoint identities to an input).
func LineGraph(algo local.Algorithm, inputFn func(a, b int64) any) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: "line(" + algo.Name() + ")",
		NewNode: func(info local.Info) local.Node {
			return &lineNode{info: info, algo: algo, inputFn: inputFn, hostSeed: int64(info.Rand.Uint64())}
		},
	}
}

// edgeID returns the virtual identity of the edge between identities a, b.
func edgeID(a, b int64) int64 {
	if a > b {
		a, b = b, a
	}
	return graph.PackIDs(a, b)
}

// finished is the status slot of a phase-A lane whose edge terminated.
type finished struct{ out any }

// lineNode hosts the edges it owns. A virtual message crosses at most two
// host edges, each on a lane laid out by one host's incident edges other
// than the one the lane runs along, in identity order (for edges sharing an
// endpoint, the order of their other endpoints):
//
//   - phase A, region 0, owner u → v over e = (u, v): e's messages to v's
//     other edges (v, x), laid out by x, then e's status;
//   - phase B, region 1, v → owner x of (v, x), x < v: the messages from
//     v's other edges (v, y) to (v, x), laid out by y.
//
// Both ends derive every layout from the neighbour lists of round 0.
type lineNode struct {
	info     local.Info
	algo     local.Algorithm
	inputFn  func(a, b int64) any
	hostSeed int64

	sim      sim
	port     []int // port[k]: the host port of owned edge k's other endpoint
	outputs  []any // by host port
	edgeDone []bool
	ndone    int
	send     []local.Message
}

func (n *lineNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	if r == 0 {
		// Setup: broadcast my incident-edge list (my neighbours' identities).
		n.outputs = make([]any, n.info.Degree)
		if n.info.Degree == 0 {
			return nil, true
		}
		return local.Broadcast(append([]int64(nil), n.info.Neighbors...), n.info.Degree), false
	}
	if r == 1 {
		n.setup(recv)
	} else {
		for p, m := range recv {
			if l, ok := m.(*lanes); ok {
				if f, ok := n.sim.take(p, n.region(p), l).(finished); ok {
					n.finish(p, f.out)
				}
			}
		}
	}
	// Even rounds are phase B, which relays; odd rounds are phase A, which
	// steps the owned edges.
	if r%2 == 0 {
		return n.emit(1), false
	}
	n.sim.open()
	n.sim.stepAll()
	for k, p := range n.port {
		if v := &n.sim.vs[k]; v.done && !n.edgeDone[p] {
			n.finish(p, v.out)
			n.sim.out[0][n.sim.at.hi[p]-1] = finished{v.out}
		}
	}
	return n.emit(0), n.ndone == n.info.Degree
}

// region returns the region of port p's lanes: 0 if I own the edge.
func (n *lineNode) region(p int) int {
	if n.info.ID < n.info.Neighbors[p] {
		return 0
	}
	return 1
}

// setup builds the owned edges and the routes from the neighbour lists.
func (n *lineNode) setup(recv []local.Message) {
	me, nb := n.info.ID, n.info.Neighbors
	deg := len(nb)
	n.edgeDone = make([]bool, deg)
	n.send = make([]local.Message, deg)
	// mine lists my ports in identity order; rank inverts it. other(p, i)
	// is the i-th of my edges but p; excl(p, q) is the position of p among
	// my edges but q.
	mine := make([]int32, deg)
	for p := range mine {
		mine[p] = int32(p)
	}
	slices.SortFunc(mine, func(a, b int32) int { return cmp.Compare(nb[a], nb[b]) })
	rank := make([]int32, deg)
	for i, p := range mine {
		rank[p] = int32(i)
	}
	other := func(p, i int32) int32 {
		if i >= rank[p] {
			i++
		}
		return mine[i]
	}
	excl := func(p, q int32) int32 {
		if rank[q] < rank[p] {
			return rank[p] - 1
		}
		return rank[p]
	}

	// far[p]: for an owned edge, its other endpoint's neighbours but me, in
	// identity order. owned[p] is the edge's index, -1 if not mine.
	far := make([][]int64, deg)
	owned := make([]int32, deg)
	slots := 0
	n.sim.wire(me, recv, func(p int, list []int64) (int, int) {
		owned[p] = -1
		if nb[p] < me {
			return 1, deg - 1
		}
		f := make([]int64, 0, len(list)-1)
		for _, x := range list {
			if x != me {
				f = append(f, x)
			}
		}
		slices.Sort(f)
		far[p] = f
		owned[p] = int32(len(n.port))
		n.port = append(n.port, p)
		slots += deg - 1 + len(f)
		return 0, len(f)
	})
	n.sim.reserve(len(n.port), slots)

	// Owned edge k's ports merge my other edges with far[port[k]]; mineSlot
	// records where my edges landed, for the routes between my edges.
	ids := make([]int64, slots)
	mineSlot := make([]int32, len(n.port)*deg)
	s := 0
	for k, p := range n.port {
		v, f, base := nb[p], far[p], s
		for i, j := int32(0), 0; int(i)+j < deg-1+len(f); s++ {
			if j == len(f) || int(i) < deg-1 && edgeID(me, nb[other(int32(p), i)]) < edgeID(v, f[j]) {
				q := other(int32(p), i)
				ids[s] = edgeID(me, nb[q])
				mineSlot[k*deg+int(q)] = int32(s)
				i++
			} else {
				ids[s] = edgeID(v, f[j])
				pos := n.sim.at.lo[p] + int32(j)
				n.sim.route[s] = lanePos(0, pos)
				n.sim.in[0][pos] = int32(s)
				j++
			}
		}
		id := edgeID(me, v)
		var input any = id
		if n.inputFn != nil {
			input = n.inputFn(me, v)
		}
		n.sim.add(n.algo, id, ids[base:s:s], input, childRand(n.hostSeed, id))
	}

	// target is where a message from my edge on port src to my edge on port
	// dst goes: into dst's inbox if I own it, else onto dst's phase-B lane.
	target := func(src, dst int32) int32 {
		if k := owned[dst]; k >= 0 {
			return mineSlot[int(k)*deg+int(src)]
		}
		return lanePos(1, n.sim.at.lo[dst]+excl(src, dst))
	}
	for p := range int32(deg) {
		for i := range int32(deg - 1) {
			q := other(p, i)
			if k := owned[p]; k >= 0 {
				n.sim.route[mineSlot[int(k)*deg+int(q)]] = target(p, q)
			} else {
				// The phase-A lane from the owner of p is laid out by my
				// other edges.
				n.sim.in[1][n.sim.at.lo[p]+i] = target(p, q)
			}
		}
	}
}

// emit ships region r to the ports of the region whose lane carries
// anything.
func (n *lineNode) emit(r int) []local.Message {
	var l *lanes
	for p := range n.send {
		n.send[p] = nil
		if n.region(p) == r && n.sim.says(r, p) {
			if l == nil {
				l = new(lanes)
			}
			n.send[p] = l
		}
	}
	if l == nil {
		return nil
	}
	n.sim.ship(r, l)
	return n.send
}

// finish records that the edge on port p terminated with output out.
func (n *lineNode) finish(p int, out any) {
	if !n.edgeDone[p] {
		n.edgeDone[p] = true
		n.ndone++
		n.outputs[p] = out
	}
}

func (n *lineNode) Output() any { return n.outputs }

var _ local.Node = (*lineNode)(nil)
