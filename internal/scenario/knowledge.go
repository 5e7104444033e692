package scenario

import (
	"errors"
	"fmt"
	"math"
	"strings"

	"github.com/unilocal/unilocal/internal/core"
	"github.com/unilocal/unilocal/internal/local"
)

// KnowledgeSpec selects the knowledge regime of a spec's non-uniform
// (PerGraph) algorithms: how loose the parameter vector they are fed is,
// relative to the concrete graph. Uniform algorithms never receive
// parameters, so the regime only shapes baseline jobs — which is exactly
// the paper's point made into an experimental axis.
type KnowledgeSpec struct {
	// Regime is one of "", "exact", "upper-bound", "none". The default ""
	// is exact knowledge: baselines get the measured parameters, today's
	// behavior.
	Regime string `json:"regime,omitempty"`
	// Looseness is the λ grid of the upper-bound regime: baselines run once
	// per λ, fed ⌈λ·n⌉/⌈λ·Δ⌉/⌈λ·a⌉/⌈λ·m⌉. Strictly ascending, every λ >= 1.
	// Defaults to [1] when the regime is upper-bound.
	Looseness []float64 `json:"looseness,omitempty"`
}

// IsDefault reports whether the spec leaves the regime at its default.
func (ks KnowledgeSpec) IsDefault() bool {
	return ks.Regime == "" && len(ks.Looseness) == 0
}

// Validate collects every problem of the regime/looseness combination, in
// the exhaustive style scenarioctl -validate reports.
func (ks KnowledgeSpec) Validate() error {
	var errs []error
	switch ks.Regime {
	case "", core.KnowExact:
		if len(ks.Looseness) != 0 {
			errs = append(errs, fmt.Errorf("knowledge: the %s regime takes no looseness grid (baselines get the measured parameters)", core.KnowExact))
		}
	case core.KnowNone:
		if len(ks.Looseness) != 0 {
			errs = append(errs, fmt.Errorf("knowledge: the %s regime advertises no parameters, so a looseness grid is meaningless", core.KnowNone))
		}
	case core.KnowUpperBound:
		prev := math.Inf(-1)
		for i, lam := range ks.Looseness {
			if err := core.UpperBound(lam).Validate(); err != nil {
				errs = append(errs, fmt.Errorf("knowledge: looseness[%d]: %w", i, err))
				continue
			}
			if lam <= prev {
				errs = append(errs, fmt.Errorf("knowledge: looseness grid must be strictly ascending (looseness[%d] = %g after %g)", i, lam, prev))
			}
			prev = lam
		}
	default:
		errs = append(errs, fmt.Errorf("knowledge: unknown regime %q (have: %s, %s, %s)",
			ks.Regime, core.KnowExact, core.KnowUpperBound, core.KnowNone))
	}
	return errors.Join(errs...)
}

// Grid returns the per-job knowledge values of PerGraph roles, in plan
// order: one zero (exact) value by default, one per λ under upper-bound.
func (ks KnowledgeSpec) Grid() []core.Knowledge {
	switch ks.Regime {
	case core.KnowUpperBound:
		if len(ks.Looseness) == 0 {
			return []core.Knowledge{core.UpperBound(1)}
		}
		out := make([]core.Knowledge, len(ks.Looseness))
		for i, lam := range ks.Looseness {
			out[i] = core.UpperBound(lam)
		}
		return out
	case core.KnowNone:
		return []core.Knowledge{core.None()}
	default:
		return []core.Knowledge{{}}
	}
}

// String renders the regime deterministically, e.g. "upper-bound(λ=1,2,4,16)".
func (ks KnowledgeSpec) String() string {
	switch ks.Regime {
	case "", core.KnowExact:
		return core.KnowExact
	case core.KnowNone:
		return core.KnowNone
	}
	lams := make([]string, 0, len(ks.Looseness))
	for _, lam := range ks.Looseness {
		lams = append(lams, fmt.Sprintf("%g", lam))
	}
	if len(lams) == 0 {
		lams = []string{"1"}
	}
	return fmt.Sprintf("%s(λ=%s)", core.KnowUpperBound, strings.Join(lams, ","))
}

// Scheduler kinds: how the rounds of a spec's runs are scheduled within the
// synchronous model.
const (
	// SchedLockstep is the default clean schedule: simultaneous wake-up,
	// ascending delivery order.
	SchedLockstep = "lockstep"
	// SchedStaggered wakes each node hash(seed, id) mod (max_delay+1) rounds
	// late through the α-synchronizer (local.StaggeredWakeup).
	SchedStaggered = "staggered"
	// SchedPermuted steps each round's frontier in a seeded pseudo-random
	// order (local.Options.Permute).
	SchedPermuted = "permuted"
	// SchedStaggeredPermuted composes both adversaries.
	SchedStaggeredPermuted = "staggered-permuted"
	// SchedIDMod wakes each node id mod (max_delay+1) rounds late through
	// the α-synchronizer (local.WithWakeup): a seedless skew, the schedule
	// of Observation 2.1's composition experiment.
	SchedIDMod = "id-mod"
)

// defaultMaxDelay is the wake-up delay bound when max_delay is unset.
const defaultMaxDelay = 8

// SchedSpec selects a deterministic adversarial scheduler for every run of a
// spec. All schedules are pure functions of (spec, seed): byte-identical at
// any -workers/-parallel setting and reproducible from the seeds alone.
type SchedSpec struct {
	// Kind is one of "", "lockstep", "staggered", "permuted",
	// "staggered-permuted", "id-mod" ("" = lockstep).
	Kind string `json:"kind,omitempty"`
	// MaxDelay bounds the wake-up delay (staggered kinds and id-mod only;
	// default 8).
	MaxDelay int `json:"max_delay,omitempty"`
	// Seed drives the adversarial schedule, mixed with each job's run seed
	// (not taken by lockstep or id-mod).
	Seed int64 `json:"seed,omitempty"`
}

// IsDefault reports whether the spec leaves the scheduler at lockstep.
func (ss SchedSpec) IsDefault() bool {
	return ss.Kind == "" || ss.Kind == SchedLockstep
}

func (ss SchedSpec) staggers() bool {
	return ss.Kind == SchedStaggered || ss.Kind == SchedStaggeredPermuted
}

func (ss SchedSpec) permutes() bool {
	return ss.Kind == SchedPermuted || ss.Kind == SchedStaggeredPermuted
}

// effectiveMaxDelay is the wake-up delay bound a delaying schedule uses.
func (ss SchedSpec) effectiveMaxDelay() int {
	if ss.MaxDelay != 0 {
		return ss.MaxDelay
	}
	return defaultMaxDelay
}

// Validate collects every problem of the kind/parameter combination.
func (ss SchedSpec) Validate() error {
	var errs []error
	switch ss.Kind {
	case "", SchedLockstep, SchedStaggered, SchedPermuted, SchedStaggeredPermuted, SchedIDMod:
	default:
		errs = append(errs, fmt.Errorf("scheduler: unknown kind %q (have: %s, %s, %s, %s, %s)",
			ss.Kind, SchedLockstep, SchedStaggered, SchedPermuted, SchedStaggeredPermuted, SchedIDMod))
		return errors.Join(errs...)
	}
	if ss.MaxDelay < 0 {
		errs = append(errs, fmt.Errorf("scheduler: max_delay %d must be >= 0", ss.MaxDelay))
	}
	if !ss.staggers() && ss.Kind != SchedIDMod && ss.MaxDelay != 0 {
		errs = append(errs, fmt.Errorf("scheduler: max_delay is only meaningful for the %s and %s kinds", SchedStaggered, SchedIDMod))
	}
	if ss.IsDefault() && ss.Seed != 0 {
		errs = append(errs, fmt.Errorf("scheduler: the %s kind takes no seed (rounds are not perturbed)", SchedLockstep))
	}
	if ss.Kind == SchedIDMod && ss.Seed != 0 {
		errs = append(errs, fmt.Errorf("scheduler: the %s kind takes no seed (delays are a function of the identity)", SchedIDMod))
	}
	return errors.Join(errs...)
}

// String renders the scheduler deterministically, e.g.
// "staggered(max=8, seed=7)".
func (ss SchedSpec) String() string {
	switch {
	case ss.IsDefault():
		return SchedLockstep
	case ss.Kind == SchedIDMod:
		return fmt.Sprintf("%s(max=%d)", ss.Kind, ss.effectiveMaxDelay())
	case ss.staggers():
		return fmt.Sprintf("%s(max=%d, seed=%d)", ss.Kind, ss.effectiveMaxDelay(), ss.Seed)
	default:
		return fmt.Sprintf("%s(seed=%d)", ss.Kind, ss.Seed)
	}
}

// wrapAlgo applies the wake-up half of the schedule to one job's algorithm.
// The staggered delay seed mixes the scheduler seed with the job seed, so two
// seeds of one spec face different (but individually reproducible) wake-up
// patterns; id-mod delays depend on the identity alone.
func (ss SchedSpec) wrapAlgo(a local.Algorithm, jobSeed int64) local.Algorithm {
	switch {
	case ss.Kind == SchedIDMod:
		period := int64(ss.effectiveMaxDelay()) + 1
		return local.WithWakeup(a, func(id int64) int { return int(id % period) })
	case ss.staggers():
		return local.StaggeredWakeup(a, ss.Seed^(jobSeed*0x9E3779B9), ss.effectiveMaxDelay())
	}
	return a
}

// permuteOpt returns the engine permutation half of the schedule, or nil.
func (ss SchedSpec) permuteOpt() *local.Permute {
	if !ss.permutes() {
		return nil
	}
	return &local.Permute{Seed: ss.Seed}
}
