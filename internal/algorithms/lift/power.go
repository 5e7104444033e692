package lift

import (
	"fmt"
	"maps"
	"slices"

	"github.com/unilocal/unilocal/internal/local"
)

// Power returns an algorithm that simulates algo on the k-th power G^k of
// the host graph: every node simulates itself with the nodes at distance at
// most k as virtual neighbours. One virtual round costs k host rounds
// (flooding with hop budget k); setup costs k rounds to discover the ball.
//
// Host inputs, identities, randomness and outputs pass through unchanged.
func Power(k int, algo local.Algorithm) local.Algorithm {
	if k < 1 {
		k = 1
	}
	return local.AlgorithmFunc{
		AlgoName: fmt.Sprintf("power%d(%s)", k, algo.Name()),
		NewNode: func(info local.Info) local.Node {
			return &powerNode{info: info, k: k, algo: algo}
		},
	}
}

// powerFlood floods records through the k-hop neighbourhood. Each record is
// flooded once per virtual round; hops counts remaining forwards.
type powerFlood struct {
	records []powerRecord
}

// powerRecord is one node's contribution to the current flood wave: msgs[q]
// is its message to dsts[q], its ball in identity order (nil = silence).
type powerRecord struct {
	src  int64
	hops int // remaining hop budget
	dsts []int64
	msgs []local.Message
	done bool
}

type powerNode struct {
	info local.Info
	k    int
	algo local.Algorithm

	// sim holds the one simulated node, whose ports are the ball: the
	// identities within distance k, sorted. known collects them during
	// discovery.
	sim   sim
	known map[int64]bool

	// wave numbers this node's flood waves; seen[q] is the last wave in
	// which ball member q's record was forwarded, and doneNbrs[q] reports
	// that q terminated. relay collects the records to forward; what is
	// sent is a copy.
	wave     int
	seen     []int
	doneNbrs []bool
	relay    []powerRecord
	send     []local.Message
}

func (n *powerNode) Round(r int, recv []local.Message) ([]local.Message, bool) {
	if r <= n.k {
		if send := n.discover(r, recv); r < n.k {
			return send, false
		}
	}
	phase := (r - n.k) % n.k
	relay := n.receive(recv)
	var send []local.Message
	if phase == 0 {
		send = n.stepAndFlood()
	} else if len(relay) > 0 {
		send = n.flood(slices.Clone(relay))
	}
	clear(relay) // keep no other node's record alive
	// Termination is only safe on a phase boundary, after this node's final
	// flood has fully propagated through the ball (with k = 1 every round
	// is one: its own done flag was flooded the moment it terminated).
	return send, phase == n.k-1 && n.sim.vs[0].done && !slices.Contains(n.doneNbrs, false)
}

// discover floods identity lists for k rounds to learn the ball, then
// instantiates the simulated node on it.
func (n *powerNode) discover(r int, recv []local.Message) []local.Message {
	var fresh []int64
	if r == 0 {
		n.known = map[int64]bool{n.info.ID: true}
		fresh = []int64{n.info.ID}
	}
	for _, m := range recv {
		ids, _ := m.([]int64)
		for _, id := range ids {
			if !n.known[id] {
				n.known[id] = true
				fresh = append(fresh, id)
			}
		}
	}
	if r == n.k {
		delete(n.known, n.info.ID)
		ball := slices.Sorted(maps.Keys(n.known))
		n.known = nil
		n.sim.add(n.algo, n.info.ID, ball, n.info.Input, n.info.Rand)
		n.seen = make([]int, len(ball))
		n.doneNbrs = make([]bool, len(ball))
		n.send = make([]local.Message, n.info.Degree)
		return nil
	}
	if len(fresh) == 0 {
		return nil
	}
	return local.Broadcast(fresh, n.info.Degree)
}

// flood sends records on every port.
func (n *powerNode) flood(records []powerRecord) []local.Message {
	var m local.Message = powerFlood{records: records}
	for p := range n.send {
		n.send[p] = m
	}
	return n.send
}

// stepAndFlood runs one virtual round and starts this node's flood wave.
func (n *powerNode) stepAndFlood() []local.Message {
	n.wave++
	v := &n.sim.vs[0]
	rec := powerRecord{src: n.info.ID, hops: n.k - 1, done: true}
	if !v.done {
		// The record outlives this round, so it takes a copy of the borrowed
		// send slice.
		if send := n.sim.step(0); len(send) > 0 {
			rec.dsts, rec.msgs = v.nbrs, slices.Clone(send)
		}
		rec.done = v.done
	}
	return n.flood([]powerRecord{rec})
}

// receive extracts the deliveries and done flags addressed to this node
// and returns the records to relay: those first seen in this wave, with
// hop budget left, decremented.
func (n *powerNode) receive(recv []local.Message) []powerRecord {
	n.relay = n.relay[:0]
	for _, m := range recv {
		f, _ := m.(powerFlood)
		for _, rec := range f.records {
			q, ok := slices.BinarySearch(n.sim.vs[0].nbrs, rec.src)
			if !ok {
				continue // this node's own record
			}
			n.doneNbrs[q] = n.doneNbrs[q] || rec.done
			if i, ok := slices.BinarySearch(rec.dsts, n.info.ID); ok && rec.msgs[i] != nil {
				n.sim.inbox[q] = rec.msgs[i]
			}
			if n.seen[q] != n.wave && rec.hops > 0 {
				rec.hops--
				n.relay = append(n.relay, rec)
			}
			n.seen[q] = n.wave
		}
	}
	return n.relay
}

func (n *powerNode) Output() any { return n.sim.vs[0].out }

var _ local.Node = (*powerNode)(nil)
