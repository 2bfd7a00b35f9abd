package obs

import (
	"math"
	"sync/atomic"
	"time"

	"existdlog/internal/trace"
)

// Histogram is a fixed-bucket, lock-free histogram in the Prometheus
// mold: per-bucket observation counts plus a running sum and count, all
// maintained with atomics so observation never blocks a scrape and a
// scrape never blocks observation. Bucket boundaries are upper bounds
// (an observation v lands in the first bucket with v <= bound); the
// implicit final bucket is +Inf. Boundaries are immutable after
// construction, which is what makes the unsynchronized reads safe.
type Histogram struct {
	bounds []float64
	counts []atomic.Int64 // len(bounds)+1; last is the +Inf bucket
	sum    atomic.Uint64  // float64 bits, CAS-accumulated
	count  atomic.Int64
}

// NewHistogram returns a histogram over the given strictly increasing
// upper bounds. An empty bounds slice yields a single +Inf bucket.
func NewHistogram(bounds ...float64) *Histogram {
	for i := 1; i < len(bounds); i++ {
		if bounds[i] <= bounds[i-1] {
			panic("obs: histogram bounds must be strictly increasing")
		}
	}
	return &Histogram{
		bounds: bounds,
		counts: make([]atomic.Int64, len(bounds)+1),
	}
}

// LatencyBuckets are the default buckets for query latency in seconds:
// 100µs to 10s, roughly 2.5× apart — wide enough for a cold optimizer
// pass, fine enough to separate sub-millisecond cached queries.
func LatencyBuckets() []float64 {
	return []float64{0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005,
		0.01, 0.025, 0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10}
}

// SizeBuckets are the default buckets for fact counts and delta sizes:
// decades from 1 to 1e6. They are trace.SizeBounds, the layout the engine
// buckets each query's delta sizes by, so the delta histogram can Merge
// a query's counts bucket for bucket.
func SizeBuckets() []float64 {
	return append([]float64(nil), trace.SizeBounds[:]...)
}

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// First bucket whose upper bound admits v; linear scan — the bucket
	// lists here are short and the scan is branch-predictable.
	i := len(h.bounds)
	for b, bound := range h.bounds {
		if v <= bound {
			i = b
			break
		}
	}
	h.counts[i].Add(1)
	h.count.Add(1)
	h.addSum(v)
}

// Merge adds pre-bucketed observations: counts[i] observations in
// bucket i (counts is laid out like the histogram's buckets, +Inf last)
// whose values total sum. It is one atomic add per non-empty bucket and
// one sum update, however many values the counts stand for.
func (h *Histogram) Merge(counts []int64, sum float64) {
	if len(counts) != len(h.counts) {
		panic("obs: merged counts do not match the histogram's buckets")
	}
	total := int64(0)
	for i, c := range counts {
		if c != 0 {
			h.counts[i].Add(c)
			total += c
		}
	}
	if total == 0 {
		return
	}
	h.count.Add(total)
	h.addSum(sum)
}

// addSum adds v to the running sum (CAS loop on the float64 bits).
func (h *Histogram) addSum(v float64) {
	for {
		old := h.sum.Load()
		neu := math.Float64bits(math.Float64frombits(old) + v)
		if h.sum.CompareAndSwap(old, neu) {
			return
		}
	}
}

// HistogramSnapshot is a consistent-enough copy of a histogram for
// rendering: buckets are read in one pass, so a scrape racing an
// Observe may see the new observation in some counters and not others,
// but every counter is a value that was true at some instant and the
// rendered cumulative buckets stay monotone (Render re-derives them
// from the per-bucket counts).
type HistogramSnapshot struct {
	Bounds []float64 // upper bounds, excluding +Inf
	Counts []int64   // per-bucket (not cumulative), len(Bounds)+1
	Sum    float64
	Count  int64
}

// Snapshot copies the histogram's state.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Bounds: h.bounds,
		Counts: make([]int64, len(h.counts)),
		Sum:    math.Float64frombits(h.sum.Load()),
	}
	total := int64(0)
	for i := range h.counts {
		c := h.counts[i].Load()
		s.Counts[i] = c
		total += c
	}
	// Derive the count from the buckets read, not the count atomic: a
	// racing Observe bumps the bucket before the count, and deriving
	// keeps the rendered +Inf cumulative bucket equal to _count, which
	// the exposition format requires.
	s.Count = total
	return s
}

// Count returns the number of observations.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Quantile estimates the q-quantile (0 <= q <= 1) from the snapshot by
// linear interpolation inside the bucket where the rank falls — the
// same estimate Prometheus's histogram_quantile computes. Observations
// in the +Inf bucket clamp to the highest finite bound. Returns 0 for
// an empty histogram.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	cum := int64(0)
	for i, c := range s.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i == len(s.Bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			if len(s.Bounds) == 0 {
				return 0
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		inBucket := rank - float64(cum-c)
		return lo + (hi-lo)*(inBucket/float64(c))
	}
	if len(s.Bounds) == 0 {
		return 0
	}
	return s.Bounds[len(s.Bounds)-1]
}

// Quantile estimates the q-quantile of the live histogram.
func (h *Histogram) Quantile(q float64) float64 { return h.Snapshot().Quantile(q) }

// QuantileDuration is Quantile for histograms observing seconds,
// rendered as a duration rounded to the microsecond.
func (s HistogramSnapshot) QuantileDuration(q float64) time.Duration {
	return time.Duration(s.Quantile(q) * float64(time.Second)).Round(time.Microsecond)
}
