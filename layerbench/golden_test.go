package main

import (
	"encoding/json"
	"flag"
	"os"
	"testing"

	"github.com/unilocal/unilocal/internal/graph"
	"github.com/unilocal/unilocal/internal/scenario"
	"github.com/unilocal/unilocal/internal/serve"
)

var update = flag.Bool("update", false, "rewrite golden.json for --seed goldenMinSeed to goldenMaxSeed")

// The --seed values golden.json covers: seed s expands at seed offset s-1,
// and a mis-core pass also expands the offsets after it.
const goldenMinSeed, goldenMaxSeed = 0, 21

// executeCounters runs every batch workload's specs at the given seed
// offsets through serve.Execute — the function `localbench -scenarios`
// prints from — and returns each job's counters by label.
func executeCounters(t *testing.T, offsets func(w *workload) []int64) map[string]counters {
	t.Helper()
	out := map[string]counters{}
	for i := range workloads {
		w := &workloads[i]
		if w.offsets == 0 {
			continue
		}
		raw, err := w.specBytes()
		if err != nil {
			t.Fatal(err)
		}
		var specs []*scenario.Spec
		for _, data := range raw {
			s, err := scenario.Parse(data)
			if err != nil {
				t.Fatal(err)
			}
			specs = append(specs, s)
		}
		corpus := graph.NewCorpus()
		for _, off := range offsets(w) {
			res, err := serve.Execute(specs, serve.ExecOptions{Corpus: corpus, SeedOffset: off})
			if err != nil {
				t.Fatalf("%s at seed offset %d: %v", w.name, off, err)
			}
			for ji, job := range res.Batch.Jobs {
				r := res.Results[ji].Res
				out[job.Label] = counters{Rounds: r.Rounds, Messages: r.Messages, Steps: r.Steps}
			}
		}
	}
	return out
}

// TestGolden checks golden.json against a fresh execution of the default
// seed, or rewrites it for every covered seed under -update.
func TestGolden(t *testing.T) {
	if *update {
		got := executeCounters(t, func(w *workload) []int64 {
			var offs []int64
			for off := int64(goldenMinSeed - 1); off <= goldenMaxSeed-1+int64(w.offsets-1); off++ {
				offs = append(offs, off)
			}
			return offs
		})
		data, err := json.MarshalIndent(got, "", " ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile("golden.json", append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := loadGolden()
	if err != nil {
		t.Fatal(err)
	}
	got := executeCounters(t, func(w *workload) []int64 {
		offs := make([]int64, w.offsets)
		for k := range offs {
			offs[k] = int64(k)
		}
		return offs
	})
	for label, c := range got {
		if want, ok := golden[label]; !ok || c != want {
			t.Errorf("%s: executed %+v, golden %+v (present %v)", label, c, want, ok)
		}
	}
}
