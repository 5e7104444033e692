package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/unilocal/unilocal/internal/benchfmt"
)

// doc builds a document with one record per experiment name, each with the
// given wall time in milliseconds.
func doc(walls map[string]int64) *benchfmt.Doc {
	d := &benchfmt.Doc{SchemaVersion: benchfmt.SchemaVersion, Seed: 1, Parallel: 1}
	for _, exp := range []string{"e1-cycle-n256", "e1-gnp8-n256", "e10-gnp6-n256", "e3-forest-a1-n256", "e8-gnp8-n1024"} {
		d.Results = append(d.Results, benchfmt.Record{
			Experiment: exp, Label: "uniform/seed=1/rep=0", Algorithm: "luby-mis",
			N: 256, Rounds: 9, Messages: 100, Steps: 1000, WallNs: walls[exp] * 1e6,
		})
	}
	return d
}

var flat = map[string]int64{"e1-cycle-n256": 100, "e1-gnp8-n256": 100, "e10-gnp6-n256": 100, "e3-forest-a1-n256": 100, "e8-gnp8-n1024": 100}

func TestUnmatchedPinFails(t *testing.T) {
	g := gate{pins: []string{"e1-", "E3"}, tolerance: 0.2, instrTol: -1, normalize: true}
	err := checkTimings(doc(flat), doc(flat), g)
	if err == nil || !strings.Contains(err.Error(), `pin "E3" matches no experiment`) {
		t.Fatalf("case-mismatched pin not rejected: %v", err)
	}
}

func TestPinnedGroupRegression(t *testing.T) {
	g := gate{pins: []string{"e1-", "e3-"}, tolerance: 0.2, instrTol: -1, normalize: true}
	// The group is the sum of its records: one e1 spec 30% slower and the
	// other 30% faster leaves the group flat, and e10 (not matched by the
	// "e1-" prefix) is part of the unpinned reference.
	shifted := map[string]int64{"e1-cycle-n256": 130, "e1-gnp8-n256": 70, "e10-gnp6-n256": 100, "e3-forest-a1-n256": 100, "e8-gnp8-n1024": 100}
	if err := checkTimings(doc(flat), doc(shifted), g); err != nil {
		t.Fatalf("flat group reported as a regression: %v", err)
	}
	slow := map[string]int64{"e1-cycle-n256": 150, "e1-gnp8-n256": 150, "e10-gnp6-n256": 100, "e3-forest-a1-n256": 100, "e8-gnp8-n1024": 100}
	err := checkTimings(doc(flat), doc(slow), g)
	if err == nil || !strings.Contains(err.Error(), "e1-* regressed 50.0%") {
		t.Fatalf("50%% slower e1 group not caught: %v", err)
	}
	// A uniformly slower machine is normalized away.
	slower := map[string]int64{}
	for k, v := range flat {
		slower[k] = 2 * v
	}
	if err := checkTimings(doc(flat), doc(slower), g); err != nil {
		t.Fatalf("uniform machine slowdown reported as a regression: %v", err)
	}
}

func TestDeterministicDivergence(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, d *benchfmt.Doc) string {
		data, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		return p
	}
	g := gate{pins: []string{"e1-"}, tolerance: -1, instrTol: -1}
	old := write("old.json", doc(flat))
	if err := run(old, write("same.json", doc(flat)), g); err != nil {
		t.Fatalf("identical files rejected: %v", err)
	}
	for _, c := range []struct {
		name   string
		mutate func(*benchfmt.Record)
		want   string
	}{
		{"rounds", func(r *benchfmt.Record) { r.Rounds++ }, "rounds 9→10"},
		{"steps", func(r *benchfmt.Record) { r.Steps-- }, "steps 1000→999"},
		{"label", func(r *benchfmt.Record) { r.Label = "baseline/seed=1/rep=0" }, "identity changed"},
	} {
		d := doc(flat)
		c.mutate(&d.Results[2])
		err := run(old, write(c.name+".json", d), g)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s divergence: got %v, want an error mentioning %q", c.name, err, c.want)
		}
	}
}
