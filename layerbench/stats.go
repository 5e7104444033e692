package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile of xs by linear interpolation between the
// closest ranks (0 for an empty slice). xs is not modified.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// beyond counts the samples strictly above the q-quantile: the guide for
// reporting a tail percentile asks for at least ten.
func beyond(xs []float64, q float64) int {
	v := quantile(xs, q)
	n := 0
	for _, x := range xs {
		if x > v {
			n++
		}
	}
	return n
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// medians reduces per-pass metric samples to their per-name medians.
func medians(passes []map[string]float64) map[string]float64 {
	byName := map[string][]float64{}
	for _, p := range passes {
		for k, v := range p {
			byName[k] = append(byName[k], v)
		}
	}
	out := make(map[string]float64, len(byName))
	for k, vs := range byName {
		out[k] = median(vs)
	}
	return out
}
