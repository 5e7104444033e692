package scenario

import (
	"fmt"
	"path/filepath"
	"strings"
	"testing"

	"github.com/unilocal/unilocal/internal/sweep"
)

// TestPaperCorpus keeps scenarios/paper covering every experiment
// cmd/localbench tables: at least one spec per E-id prefix, and the 87-job
// grid BENCH.json records.
func TestPaperCorpus(t *testing.T) {
	specs, err := LoadDir(filepath.Join("..", "..", "scenarios", "paper"))
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []int{1, 2, 3, 4, 6, 7, 8, 9, 10, 13} {
		prefix := fmt.Sprintf("e%d-", id)
		found := false
		for _, s := range specs {
			found = found || strings.HasPrefix(s.Name, prefix)
		}
		if !found {
			t.Errorf("no %s* spec in scenarios/paper", prefix)
		}
	}
	jobs := 0
	for _, s := range specs {
		jobs += s.ApproxJobs()
	}
	if jobs != 87 {
		t.Errorf("scenarios/paper expands to %d jobs, want 87", jobs)
	}
}

// TestPaperObservation21 checks the bound of Observation 2.1 on the two
// committed E13 specs instead of printing it: Luby composed behind an id-mod
// wake-up skew of at most max_delay rounds finishes within
// max_delay + T_luby + 4 rounds, where T_luby is the plain lockstep run on
// the same graph and seed.
func TestPaperObservation21(t *testing.T) {
	specs, err := LoadDir(filepath.Join("..", "..", "scenarios", "paper"))
	if err != nil {
		t.Fatal(err)
	}
	var pair []*Spec
	for _, name := range []string{"e13-gnp6-n1024-plain", "e13-gnp6-n1024-id-mod"} {
		for _, s := range specs {
			if s.Name == name {
				pair = append(pair, s)
			}
		}
	}
	if len(pair) != 2 {
		t.Fatalf("found %d of the two e13 specs", len(pair))
	}
	plain, skewed := pair[0], pair[1]
	if !plain.Scheduler.IsDefault() || skewed.Scheduler.Kind != SchedIDMod {
		t.Fatalf("e13 schedulers are %s and %s, want lockstep and %s", plain.Scheduler, skewed.Scheduler, SchedIDMod)
	}
	b, err := Expand(pair, ExpandOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(b.Jobs) != 2 {
		t.Fatalf("e13 specs expanded to %d jobs, want 2", len(b.Jobs))
	}
	results, _ := sweep.Run(b.Jobs, sweep.Options{Parallel: 1})
	if _, err := Summarize(b, results); err != nil {
		t.Fatal(err)
	}
	maxDelay := skewed.Scheduler.effectiveMaxDelay()
	tPlain, tSkewed := results[0].Res.Rounds, results[1].Res.Rounds
	if bound := maxDelay + tPlain + 4; tSkewed > bound {
		t.Errorf("composed rounds %d exceed Observation 2.1's bound %d (max delay %d + T_luby %d + 4)",
			tSkewed, bound, maxDelay, tPlain)
	}
	if tSkewed <= tPlain {
		t.Errorf("composed rounds %d do not exceed the plain run's %d: the wake-up skew is a no-op", tSkewed, tPlain)
	}
}
