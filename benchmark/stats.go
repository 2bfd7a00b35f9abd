package main

import (
	"sort"
	"time"

	"existdlog/benchmark/gen"
)

func seconds(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = d.Seconds()
	}
	return out
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

func median(xs []float64) float64 { return gen.Median(xs) }

// quartiles returns what Python's statistics.quantiles(xs, n=4) does
// (the default, exclusive method), because that is how the driver that
// accepts or rejects this benchmark measures spread. It needs two
// values or more.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	at := func(i int) float64 {
		j := min(max(i*(n+1)/4, 1), n-1)
		delta := float64(i*(n+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(2), at(3)
}

// tail returns the highest percentile of the sample that still has ten
// values beyond it, and its value; with fewer than eleven values it
// falls back on the maximum.
func tail(xs []float64) (percentile, value float64) {
	s := sorted(xs)
	n := len(s)
	if n == 0 {
		return 0, 0
	}
	if n < 11 {
		return 100, s[n-1]
	}
	return 100 * float64(n-10) / float64(n), s[n-11]
}
