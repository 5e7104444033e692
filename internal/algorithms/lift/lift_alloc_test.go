package lift

// Allocation regression test for the lift data plane: a warm line lift
// routes every virtual message through slot tables fixed at setup, so a
// steady-state host round allocates only the header of the lane region it
// ships and the fresh region that takes its place, whatever the degree.
// Per-round routing maps, regrown item buffers or per-step inboxes cost
// allocations per port and trip the bound.

import (
	"fmt"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/local"
)

// ping is sent on every port: a preboxed value, so sending it allocates
// nothing.
var ping local.Message = struct{}{}

// chatterNode sends ping to every virtual neighbour for a fixed number of
// rounds, from one reused send slice.
type chatterNode struct {
	rounds int
	send   []local.Message
}

func (c *chatterNode) Round(r int, _ []local.Message) ([]local.Message, bool) {
	return c.send, r+1 >= c.rounds
}

func (c *chatterNode) Output() any { return nil }

func chatter(rounds int) local.Algorithm {
	return local.AlgorithmFunc{
		AlgoName: "chatter",
		NewNode: func(info local.Info) local.Node {
			send := make([]local.Message, info.Degree)
			for i := range send {
				send[i] = ping
			}
			return &chatterNode{rounds: rounds, send: send}
		},
	}
}

// lineAllocsPerHostRound measures the allocations of one steady-state host
// round of the line lift on g: the difference between a long and a short
// run, per host node and host round.
func lineAllocsPerHostRound(t *testing.T, g *graph.Graph) float64 {
	t.Helper()
	run := func(rounds int) float64 {
		algo := LineGraph(chatter(rounds), nil)
		return testing.AllocsPerRun(10, func() {
			if _, err := local.Run(g, algo, local.Options{Sequential: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
	const short, long = 4, 20
	// Each virtual round costs two host rounds.
	return (run(long) - run(short)) / float64(2*(long-short)*g.N())
}

func TestLineLiftSteadyStateAllocs(t *testing.T) {
	for _, d := range []int{3, 8, 16} {
		t.Run(fmt.Sprintf("regular%d", d), func(t *testing.T) {
			g, err := graph.RandomRegular(64, d, 5)
			if err != nil {
				t.Fatal(err)
			}
			perRound := lineAllocsPerHostRound(t, g)
			t.Logf("degree %d: %.2f allocs per host round", d, perRound)
			// Budget: one lane region and one header per host round, plus
			// slack. Routing state allocated per port or per message
			// exceeds it at degree 3 already.
			if perRound > 3 {
				t.Errorf("line lift allocates %.2f per host round at degree %d; slot-table budget is 3", perRound, d)
			}
		})
	}
}
