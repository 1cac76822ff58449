package main

import (
	"math"
	"slices"
)

// A metric is one named, measured number with its unit.
type metric struct {
	name, unit string
	value      float64
}

// quantile returns the q-quantile of sorted, interpolating linearly between
// the closest ranks; NaN when sorted is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return math.NaN()
	}
	pos := q * float64(len(sorted)-1)
	i := int(pos)
	if i >= len(sorted)-1 {
		return sorted[len(sorted)-1]
	}
	return sorted[i] + (pos-float64(i))*(sorted[i+1]-sorted[i])
}

func median(v []float64) float64 {
	s := slices.Clone(v)
	slices.Sort(s)
	return quantile(s, 0.5)
}

// weightedQuantile returns Σ_g len(g)·quantile(g, q) / Σ_g len(g) over the
// non-empty groups, sorting each group in place.
func weightedQuantile(groups [][]float64, q float64) float64 {
	var sum float64
	var n int
	for _, g := range groups {
		if len(g) == 0 {
			continue
		}
		slices.Sort(g)
		sum += quantile(g, q) * float64(len(g))
		n += len(g)
	}
	return sum / float64(n)
}

// quartiles returns the first and third quartiles of v as Python's
// statistics.quantiles(v, n=4) computes them (its default 'exclusive'
// method), the definition the benchmark's run-to-run spread is judged by.
func quartiles(v []float64) (q1, q3 float64) {
	d := slices.Clone(v)
	slices.Sort(d)
	if len(d) == 1 {
		return d[0], d[0]
	}
	m := len(d) + 1
	at := func(i int) float64 {
		j := min(max(i*m/4, 1), len(d)-1)
		delta := float64(i*m - j*4)
		return (d[j-1]*(4-delta) + d[j]*delta) / 4
	}
	return at(1), at(3)
}
