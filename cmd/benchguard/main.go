// Command benchguard compares a freshly regenerated BENCH.json against the
// committed one (benchstat-style, but over the localbench record schema
// declared in internal/benchfmt) and fails loudly on regressions:
//
//   - Deterministic fields (experiment, label, algorithm, n, rounds,
//     messages, steps, ratio) must match record for record: a mismatch means
//     the reproduction itself changed, which a perf PR must never do
//     silently. The schema-v4 instruction block's deterministic members
//     (node-steps, steps/job, frontier occupancy) are held to the same
//     standard.
//
//   - Pinned hot-path groups (-pin, default the transformer-heavy E1, E3
//     and E6 specs) must not regress their wall time by more than
//     -tolerance (default 20%). A pin is a case-sensitive prefix of the
//     record's experiment (spec) name, and a group's wall time is the sum
//     over every record it matches; a pin that matches no record of -old is
//     an error, so a renamed spec cannot silently drop out of the gate.
//     Because the committed baseline and the fresh file are usually
//     produced on different machines (author laptop vs CI runner), the gate
//     is machine-normalized by default: old wall times are rescaled by the
//     speed ratio measured on the *unpinned* records (so the gated quantity
//     never dilutes its own denominator), and only a pinned hot path
//     growing relative to that reference trips the gate. -normalize=false
//     compares raw wall times (same-machine A/B runs); -tolerance -1
//     disables the timing gate entirely.
//
//   - The instructions-per-job trend (schema v4: sweep ns per node-step)
//     must not regress by more than -instr-tolerance (default 20%) after
//     the same machine normalization. The trend line is printed whether it
//     moved up or down, so wins land in the CI log too; -instr-tolerance -1
//     disables only this gate.
//
// Files that cannot be compared meaningfully — different seeds, different
// -parallel/-workers settings, or an unknown schema version — are an error,
// not a silent skip: a stale or misgenerated baseline must not disable the
// gate while CI stays green.
//
// Usage:
//
//	benchguard -old BENCH.json -new BENCH.ci.json [-tolerance 0.20]
//	           [-instr-tolerance 0.20] [-pin e1-,e3-,e6-] [-normalize=true]
//
// CI regenerates BENCH.ci.json on every commit and runs this guard against
// the committed BENCH.json, so a hot-path regression fails the build with a
// per-group wall-time table instead of drifting by unnoticed.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"slices"
	"strings"

	"github.com/unilocal/unilocal/internal/benchfmt"
)

var (
	flagOld       = flag.String("old", "BENCH.json", "committed baseline")
	flagNew       = flag.String("new", "BENCH.ci.json", "freshly regenerated results")
	flagTolerance = flag.Float64("tolerance", 0.20, "max allowed wall-time regression on pinned groups (negative disables timing checks)")
	flagInstrTol  = flag.Float64("instr-tolerance", 0.20, "max allowed ns-per-node-step regression on the schema-v4 instruction trend (negative disables it)")
	flagPin       = flag.String("pin", "e1-,e3-,e6-", "comma-separated experiment-name prefixes whose summed wall time is gated (case-sensitive)")
	flagNormalize = flag.Bool("normalize", true, "rescale old wall times by the machine-speed ratio of the unpinned records instead of comparing raw wall times")
)

// gate holds the timing-check settings.
type gate struct {
	pins      []string
	tolerance float64
	instrTol  float64
	normalize bool
}

func main() {
	flag.Parse()
	g := gate{tolerance: *flagTolerance, instrTol: *flagInstrTol, normalize: *flagNormalize}
	for _, p := range strings.Split(*flagPin, ",") {
		if p = strings.TrimSpace(p); p != "" {
			g.pins = append(g.pins, p)
		}
	}
	if err := run(*flagOld, *flagNew, g); err != nil {
		fmt.Fprintln(os.Stderr, "benchguard:", err)
		os.Exit(1)
	}
}

func load(path string) (*benchfmt.Doc, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var d benchfmt.Doc
	if err := json.Unmarshal(data, &d); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if d.SchemaVersion != benchfmt.SchemaVersion {
		return nil, fmt.Errorf("%s: schema version %d, want %d (regenerate with cmd/localbench)",
			path, d.SchemaVersion, benchfmt.SchemaVersion)
	}
	return &d, nil
}

func run(oldPath, newPath string, g gate) error {
	old, err := load(oldPath)
	if err != nil {
		return err
	}
	fresh, err := load(newPath)
	if err != nil {
		return err
	}
	if err := checkDeterministic(old, fresh); err != nil {
		return err
	}
	fmt.Printf("benchguard: %d records deterministic-identical (seed %d)\n", len(old.Results), old.Seed)
	if g.tolerance < 0 && g.instrTol < 0 {
		fmt.Println("benchguard: timing checks disabled")
		return nil
	}
	if old.Parallel != fresh.Parallel || old.Workers != fresh.Workers {
		return fmt.Errorf("parallel/workers differ (%d/%d vs %d/%d): regenerate both files with the same flags, or pass -tolerance -1 to skip timing",
			old.Parallel, old.Workers, fresh.Parallel, fresh.Workers)
	}
	return checkTimings(old, fresh, g)
}

// checkDeterministic requires the reproduction (what ran, and what it
// computed) to be unchanged record for record.
func checkDeterministic(old, fresh *benchfmt.Doc) error {
	if old.Seed != fresh.Seed {
		return fmt.Errorf("incomparable files: seeds differ (%d vs %d)", old.Seed, fresh.Seed)
	}
	if len(old.Results) != len(fresh.Results) {
		return fmt.Errorf("record count changed: %d vs %d", len(old.Results), len(fresh.Results))
	}
	if (old.Corpus == nil) != (fresh.Corpus == nil) {
		return fmt.Errorf("corpus block present in one file only (old %v, new %v): regenerate both with the same localbench",
			old.Corpus != nil, fresh.Corpus != nil)
	}
	if o, n := old.Corpus, fresh.Corpus; o != nil {
		if o.Family != n.Family || o.N != n.N || o.Edges != n.Edges || o.ImageBytes != n.ImageBytes {
			return fmt.Errorf("corpus block deterministic fields diverged: %s/n=%d/edges=%d/image=%dB vs %s/n=%d/edges=%d/image=%dB",
				o.Family, o.N, o.Edges, o.ImageBytes, n.Family, n.N, n.Edges, n.ImageBytes)
		}
	}
	if (old.Instr == nil) != (fresh.Instr == nil) {
		return fmt.Errorf("instruction block present in one file only (old %v, new %v): regenerate both with the same localbench",
			old.Instr != nil, fresh.Instr != nil)
	}
	if o, n := old.Instr, fresh.Instr; o != nil {
		if o.NodeSteps != n.NodeSteps || o.StepsPerJob != n.StepsPerJob || o.FrontierOccupancy != n.FrontierOccupancy {
			return fmt.Errorf("instruction block deterministic fields diverged: steps %d→%d steps/job %.2f→%.2f occupancy %.4f→%.4f",
				o.NodeSteps, n.NodeSteps, o.StepsPerJob, n.StepsPerJob, o.FrontierOccupancy, n.FrontierOccupancy)
		}
	}
	for i := range old.Results {
		o, n := old.Results[i], fresh.Results[i]
		if o.Experiment != n.Experiment || o.Label != n.Label || o.Algorithm != n.Algorithm || o.N != n.N {
			return fmt.Errorf("record %d identity changed: %s/%s/%s/n=%d vs %s/%s/%s/n=%d",
				i, o.Experiment, o.Label, o.Algorithm, o.N, n.Experiment, n.Label, n.Algorithm, n.N)
		}
		if o.Rounds != n.Rounds || o.Messages != n.Messages || o.Steps != n.Steps || o.Ratio != n.Ratio {
			return fmt.Errorf("record %d (%s/%s) deterministic fields diverged: rounds %d→%d messages %d→%d steps %d→%d ratio %.4f→%.4f",
				i, o.Experiment, o.Label, o.Rounds, n.Rounds, o.Messages, n.Messages, o.Steps, n.Steps, o.Ratio, n.Ratio)
		}
	}
	return nil
}

// checkTimings compares the summed wall time of each pinned group,
// benchstat-style. With normalize, old wall times are rescaled by the
// machine-speed ratio measured on the unpinned records, cancelling uniform
// host differences without letting a pinned regression inflate its own
// denominator (a 1.5x slowdown of the heaviest pinned group would otherwise
// drag the whole-suite factor up and mask itself).
func checkTimings(old, fresh *benchfmt.Doc, g gate) error {
	group := func(exp string) string {
		for _, p := range g.pins {
			if strings.HasPrefix(exp, p) {
				return p
			}
		}
		return ""
	}
	sum := func(d *benchfmt.Doc) (perGroup map[string]int64, total int64) {
		perGroup = map[string]int64{}
		for _, r := range d.Results {
			perGroup[group(r.Experiment)] += r.WallNs
			total += r.WallNs
		}
		return perGroup, total
	}
	oldWall, oldTotal := sum(old)
	newWall, newTotal := sum(fresh)
	for _, p := range g.pins {
		if !slices.ContainsFunc(old.Results, func(r benchfmt.Record) bool { return strings.HasPrefix(r.Experiment, p) }) {
			return fmt.Errorf("pin %q matches no experiment in the old file", p)
		}
	}
	if oldTotal == 0 || newTotal == 0 {
		fmt.Println("benchguard: no wall-time data; skipping timing checks")
		return nil
	}
	// factor rescales old wall times onto the new machine: with normalize
	// it is the speed ratio of the unpinned reference records (falling back
	// to the whole suite when everything is pinned), without it 1 (raw
	// comparison).
	factor := 1.0
	mode := "raw"
	if g.normalize {
		if oldRef, newRef := oldWall[""], newWall[""]; oldRef > 0 && newRef > 0 {
			factor = float64(newRef) / float64(oldRef)
			mode = fmt.Sprintf("normalized vs unpinned reference, machine factor %.2fx", factor)
		} else {
			factor = float64(newTotal) / float64(oldTotal)
			mode = fmt.Sprintf("normalized vs whole suite (no unpinned reference), machine factor %.2fx", factor)
		}
	}
	fmt.Printf("benchguard: timing mode: %s\n", mode)
	fmt.Println("| pinned group | old ms | new ms | delta |")
	fmt.Println("|---|---|---|---|")
	var failures []string
	for _, p := range g.pins {
		o, n := oldWall[p], newWall[p]
		if o == 0 {
			continue
		}
		delta := float64(n)/(float64(o)*factor) - 1
		if g.tolerance >= 0 && delta > g.tolerance {
			failures = append(failures, fmt.Sprintf("%s* regressed %.1f%% (limit %.0f%%)",
				p, 100*delta, 100*g.tolerance))
		}
		fmt.Printf("| %s* | %.1f | %.1f | %+.1f%% |\n", p, float64(o)/1e6, float64(n)/1e6, 100*delta)
	}
	if o, n := old.Corpus, fresh.Corpus; o != nil && n != nil && o.WarmNs > 0 && n.WarmNs > 0 {
		fmt.Printf("corpus disk tier: cold/warm %.1fx → %.1fx (%s n=%d, image %d bytes)\n",
			o.Speedup, n.Speedup, n.Family, n.N, n.ImageBytes)
	}
	if old.Sweep.JobsPerSec > 0 && fresh.Sweep.JobsPerSec > 0 {
		delta := fresh.Sweep.JobsPerSec/old.Sweep.JobsPerSec - 1
		fmt.Printf("sweep throughput: %.1f → %.1f jobs/s (%+.1f%%), engine allocs %d → %d\n",
			old.Sweep.JobsPerSec, fresh.Sweep.JobsPerSec, 100*delta,
			old.Sweep.EngineAllocs, fresh.Sweep.EngineAllocs)
	}
	// Instructions-per-job trend (schema v4): ns per node-step over the whole
	// sweep, machine-normalized by the same factor as the pinned wall gates.
	// Printed unconditionally — improvements should be as visible in the CI
	// log as regressions are fatal.
	if o, n := old.Instr, fresh.Instr; o != nil && n != nil && o.NsPerStep > 0 && n.NsPerStep > 0 {
		adjusted := o.NsPerStep * factor
		delta := n.NsPerStep/adjusted - 1
		fmt.Printf("instruction budget: %.1f → %.1f ns/step (%+.1f%% after normalization; %.0f steps/job, frontier occupancy %.3f)\n",
			o.NsPerStep, n.NsPerStep, 100*delta, n.StepsPerJob, n.FrontierOccupancy)
		if g.instrTol >= 0 && delta > g.instrTol {
			failures = append(failures, fmt.Sprintf("ns/step regressed %.1f%% (limit %.0f%%)",
				100*delta, 100*g.instrTol))
		}
	}
	if len(failures) > 0 {
		return fmt.Errorf("pinned hot-path regression: %s", strings.Join(failures, "; "))
	}
	return nil
}
