package linial

import (
	"slices"
	"sync"
	"testing"
)

// scheduleGrid returns guesses covering small and power-of-two degrees and
// identity bounds from below the clamp, through small primes and powers of
// two, to past maxPalette.
func scheduleGrid() (deltas []int, ms []int64) {
	for d := 0; d <= 64; d++ {
		deltas = append(deltas, d)
	}
	for d := 128; d <= 1<<20; d *= 2 {
		deltas = append(deltas, d)
	}
	ms = []int64{0, 1, 2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31}
	for e := 2; e <= 62; e++ {
		ms = append(ms, int64(1)<<e)
	}
	ms = append(ms, maxPalette+1)
	return deltas, ms
}

func sameSchedule(t *testing.T, what string, deltaHat int, mHat int64, steps []step, final int64) {
	t.Helper()
	wantSteps, wantFinal := computeSchedule(clampGuesses(deltaHat, mHat))
	if !slices.Equal(steps, wantSteps) || final != wantFinal {
		t.Fatalf("%s(%d, %d) = %v, %d; uncached %v, %d", what, deltaHat, mHat, steps, final, wantSteps, wantFinal)
	}
}

// TestScheduleMemoMatchesUncached checks a miss and then a hit against the
// uncached computation for every pair of the grid. The grid has more pairs
// than scheduleCap, so it also covers lookups past the cap: they stay
// correct, are not stored, and leave the earlier entries in place.
func TestScheduleMemoMatchesUncached(t *testing.T) {
	deltas, ms := scheduleGrid()
	if len(deltas)*len(ms) <= scheduleCap {
		t.Fatalf("grid of %d pairs does not reach the cap %d", len(deltas)*len(ms), scheduleCap)
	}
	var m scheduleMemo
	for _, d := range deltas {
		for _, mh := range ms {
			steps, final := m.get(d, mh)
			sameSchedule(t, "miss", d, mh, steps, final)
			steps, final = m.get(d, mh)
			sameSchedule(t, "hit", d, mh, steps, final)
		}
	}
	stored := 0
	m.entries.Range(func(_, _ any) bool { stored++; return true })
	if got := m.size.Load(); got != scheduleCap || stored != scheduleCap {
		t.Fatalf("memo counts %d and holds %d entries, want the cap %d", got, stored, scheduleCap)
	}
	if _, ok := m.entries.Load(clampGuesses(deltas[0], ms[0])); !ok {
		t.Fatal("first entry missing after the cap was reached")
	}
	if _, ok := m.entries.Load(clampGuesses(deltas[len(deltas)-1], ms[len(ms)-1])); ok {
		t.Fatal("entry past the cap was stored")
	}
}

// TestScheduleClampedKeysShareEntry checks that guesses clamping to the same
// pair read one entry.
func TestScheduleClampedKeysShareEntry(t *testing.T) {
	var m scheduleMemo
	m.get(-3, -7)
	m.get(0, 1)
	m.get(5, maxPalette+9)
	m.get(5, maxPalette)
	if got := m.size.Load(); got != 2 {
		t.Fatalf("memo holds %d entries, want 2", got)
	}
}

// TestScheduleAppendDoesNotAlias appends to a returned schedule and checks
// that a later lookup still sees the original entry. The guesses are picked
// so that the uncached schedule has spare capacity an append would reuse.
func TestScheduleAppendDoesNotAlias(t *testing.T) {
	d, mh := -1, int64(1)<<62
	for cand := 0; cand <= 64; cand++ {
		if raw, _ := computeSchedule(clampGuesses(cand, mh)); cap(raw) > len(raw) {
			d = cand
			break
		}
	}
	if d < 0 {
		t.Fatal("no guesses give a schedule with spare capacity")
	}
	steps, _ := Schedule(d, mh)
	grown := append(steps, step{q: 2, d: 1})
	grown[0] = step{q: 3, d: 1}
	again, final := Schedule(d, mh)
	sameSchedule(t, "after append", d, mh, again, final)
}

// TestScheduleConcurrent looks up overlapping keys from many goroutines, on
// a fresh memo and on the process-wide one.
func TestScheduleConcurrent(t *testing.T) {
	var m scheduleMemo
	lookups := []func(int, int64) ([]step, int64){m.get, Schedule}
	const goroutines = 16
	var wg sync.WaitGroup
	errs := make(chan string, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				d := (g + i) % 24
				mh := int64(1) << (10 + (g*7+i)%50)
				for _, get := range lookups {
					steps, final := get(d, mh)
					wantSteps, wantFinal := computeSchedule(clampGuesses(d, mh))
					if !slices.Equal(steps, wantSteps) || final != wantFinal {
						errs <- "concurrent lookup differs from the uncached computation"
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
}

// TestScheduleWarmHitAllocs pins a memo hit at zero allocations.
func TestScheduleWarmHitAllocs(t *testing.T) {
	Schedule(8, 1<<31)
	allocs := testing.AllocsPerRun(100, func() {
		Schedule(8, 1<<31)
		RoundsBound(8, 1<<31)
		PaletteSize(8, 1<<31)
	})
	if allocs != 0 {
		t.Fatalf("warm schedule lookup allocates %.1f objects, want 0", allocs)
	}
}
