// Package lift simulates LOCAL algorithms on derived graphs inside the host
// graph:
//
//   - LineGraph: run a vertex algorithm on L(G) (one virtual node per edge;
//     one virtual round costs two host rounds). Maximal matching is MIS on
//     L(G), and the paper observes (Section 5) that the Barenboim–Elkin
//     edge-coloring algorithms are vertex coloring on the line graph.
//
//   - Power: run a vertex algorithm on G^k (same nodes, edges between nodes
//     at distance <= k; one virtual round costs k host rounds). An MIS of
//     G^β is a (2,β)-ruling set of G.
//
//   - Product: run a vertex algorithm on the clique product G × K_{deg+1}
//     of Section 5.1 (each node simulates deg+1 copies of itself; one
//     virtual round costs one host round). Maximal independent sets of the
//     product are exactly (deg+1)-colorings of G.
//
// Virtual identities match the explicit constructions in the graph package
// (graph.LineGraph, graph.Power, graph.ProductDegPlusOne), so a lifted run
// and a direct run on the explicit derived graph are behaviourally
// identical; the tests verify this correspondence output-by-output.
//
// Every route is fixed at setup (see sim and DESIGN.md §2.14): a round
// only fills port-indexed slots.
package lift

import (
	"math/rand/v2"
	"slices"

	"github.com/unilocal/unilocal/internal/local"
	"github.com/unilocal/unilocal/internal/mathutil"
)

// childRand derives a deterministic RNG for virtual node vid from a host
// seed drawn once at start-up.
func childRand(hostSeed int64, vid int64) *rand.Rand {
	return local.DeriveRand(hostSeed, vid, uint64(mathutil.SplitMix64(uint64(vid))))
}

// sim is the virtual-node core the three lifts share: the virtual nodes one
// host simulates and the router between them. Virtual node k's ports are
// slots [vs[k].off, vs[k].off+len(vs[k].nbrs)) of inbox and of route.
// Deliveries write inbox; step consumes and clears a node's range.
// Outgoing messages fill lane regions (out) until ship hands a region over
// whole. None of inbox, sends, route or in leaves the host, so each is
// allocated once.
//
// Routes are fixed at setup: route[s] is where the message sent on inbox
// slot s's virtual port goes, and in[r][i] is where position i of region r
// of a received lane goes. Port p's lane, sent and received, is positions
// [at.lo[p], at.hi[p]) of its region; its last position is a status slot
// (left empty where a lift has no status to send). back[p] is my port at
// the neighbour on port p.
type sim struct {
	vs    []vnode
	inbox []local.Message
	sends [][]local.Message // scratch for stepAll
	route []int32
	out   [2][]local.Message
	in    [2][]int32
	at    layout
	back  []int32
}

// vnode is one simulated virtual node.
type vnode struct {
	node local.Node
	nbrs []int64 // virtual ports: neighbour identities, sorted
	off  int     // first inbox slot
	t    int
	done bool
	out  any
}

// layout bounds each port's lane within its region. It is fixed at setup
// and shared, read-only, with the receivers.
type layout struct{ lo, hi []int32 }

// lanes is what a host sends in one host round: one region of its lanes,
// shared by every neighbour it goes to. Position i of a lane carries the
// message of one (sender, receiver) pair of virtual nodes that both
// endpoints derived from the same layout at setup, so no identities travel.
type lanes struct {
	msgs []local.Message
	at   *layout
}

// reserve sizes the core for nodes virtual nodes with slots ports in all.
func (s *sim) reserve(nodes, slots int) {
	s.vs = make([]vnode, 0, nodes)
	s.sends = make([][]local.Message, nodes)
	s.inbox = make([]local.Message, 0, slots)
	s.route = make([]int32, slots)
}

// add creates virtual node id with the sorted ports nbrs; its slots follow
// those of the previously added node.
func (s *sim) add(algo local.Algorithm, id int64, nbrs []int64, input any, rng *rand.Rand) {
	s.vs = append(s.vs, vnode{
		node: algo.New(local.Info{ID: id, Degree: len(nbrs), Neighbors: nbrs, Input: input, Rand: rng}),
		nbrs: nbrs,
		off:  len(s.inbox),
	})
	s.inbox = append(s.inbox, make([]local.Message, len(nbrs))...)
}

// wire reads the neighbour lists of round 0 and lays out the lanes: port
// p's lane has lane(p, list) = (r, n): n positions and the status slot, in
// region r.
func (s *sim) wire(me int64, recv []local.Message, lane func(p int, list []int64) (r, n int)) {
	s.back = make([]int32, len(recv))
	s.at = layout{lo: make([]int32, len(recv)), hi: make([]int32, len(recv))}
	var size [2]int32
	for p, m := range recv {
		list, _ := m.([]int64)
		s.back[p] = int32(slices.Index(list, me))
		r, n := lane(p, list)
		s.at.lo[p] = size[r]
		size[r] += int32(n + 1)
		s.at.hi[p] = size[r]
	}
	for r, n := range size {
		s.out[r] = make([]local.Message, n)
		s.in[r] = make([]int32, n)
	}
}

// step runs virtual node k's next round on its inbox. The returned send
// slice is borrowed from the virtual node until its next step.
func (s *sim) step(k int) []local.Message {
	v := &s.vs[k]
	in := s.inbox[v.off : v.off+len(v.nbrs)]
	send, done := v.node.Round(v.t, in)
	clear(in)
	v.t++
	if done {
		v.done = true
		v.out = v.node.Output()
	}
	return send
}

// stepAll steps every live virtual node, then routes what they sent: a
// message reaches an inbox only once every node has read its own, so none
// is read a round early.
func (s *sim) stepAll() {
	for k := range s.vs {
		if !s.vs[k].done {
			s.sends[k] = s.step(k)
		}
	}
	for k, send := range s.sends {
		route := s.route[s.vs[k].off:]
		for q, msg := range send {
			if msg != nil {
				s.put(route[q], msg)
			}
		}
	}
	clear(s.sends) // the send slices go back to their nodes
}

// A route target t >= 0 is inbox slot t; t < 0 is a lane position made by
// lanePos.
func lanePos(r int, i int32) int32 { return ^(i<<1 | int32(r)) }

func (s *sim) put(t int32, msg local.Message) {
	if t >= 0 {
		s.inbox[t] = msg
		return
	}
	t = ^t
	s.out[t&1][t>>1] = msg
}

// take delivers the lane that the neighbour on port p sent in l, whose
// positions map through region r, and returns its status slot.
func (s *sim) take(p, r int, l *lanes) local.Message {
	q := s.back[p]
	lane := l.msgs[l.at.lo[q]:l.at.hi[q]]
	in := s.in[r][s.at.lo[p]:]
	last := len(lane) - 1
	for i, msg := range lane[:last] {
		if msg != nil {
			s.put(in[i], msg)
		}
	}
	return lane[last]
}

// ship hands region r over in l: a receiver may keep what it is sent, so a
// sent region is never written again.
func (s *sim) ship(r int, l *lanes) {
	l.msgs, l.at = s.out[r], &s.at
	s.out[r] = nil
}

// open gives each shipped region fresh storage, as long as its in table.
// Lifts call it just before a round fills the regions, so no empty region
// waits between rounds.
func (s *sim) open() {
	for r, out := range s.out {
		if out == nil {
			s.out[r] = make([]local.Message, len(s.in[r]))
		}
	}
}

// says reports whether port p's lane in region r carries anything.
func (s *sim) says(r, p int) bool {
	return slices.ContainsFunc(s.out[r][s.at.lo[p]:s.at.hi[p]], func(m local.Message) bool { return m != nil })
}
