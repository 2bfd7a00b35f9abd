package main

import (
	"math"
	"strconv"
	"time"
)

// reference is a fixed piece of work of the kind the server does —
// hashing into a table larger than the first-level cache, appending to
// an arena, formatting numbers, making garbage — that the client times
// between ops to gauge how fast the machine is running right now.
type reference struct {
	table []uint64
	arena []int32
	text  []byte
	keep  [64][]byte
	x     uint64
}

func newReference() *reference {
	return &reference{table: make([]uint64, 1<<18), x: 0x9e3779b97f4a7c15}
}

// run does one fixed unit of the work and returns how long it took.
func (r *reference) run() time.Duration {
	start := time.Now()
	mask := uint64(len(r.table) - 1)
	r.arena = r.arena[:0]
	for i := 0; i < 30000; i++ {
		r.x ^= r.x << 13
		r.x ^= r.x >> 7
		r.x ^= r.x << 17
		k := r.x | 1
		// Open addressing, as the engine's fingerprint sets do it.
		for j := k & mask; ; j = (j + 1) & mask {
			if r.table[j] == 0 || r.table[j] == k {
				r.table[j] = k
				break
			}
		}
		if i%4 == 0 {
			r.arena = append(r.arena, int32(k), int32(k>>32))
		}
		if i%8 == 0 {
			r.text = strconv.AppendUint(r.text[:0], k, 10)
		}
		if i%32 == 0 {
			b := make([]byte, 48+int(k&63))
			copy(b, r.text)
			r.keep[(i/32)%len(r.keep)] = b
		}
		if i%4096 == 0 {
			// Keep the table half empty so that probes stay short.
			for j := range r.table[:1<<12] {
				r.table[(uint64(j)*64+k)&mask] = 0
			}
		}
	}
	return time.Since(start)
}

// referenceUnit is how long one run of the reference work took on the
// box the benchmark was written on, in a quiet minute. It only fixes
// the scale of the reported times; every comparison is between two
// runs scaled the same way.
const referenceUnit = 2800 * time.Microsecond

// speedometer times the reference work between ops, at most once every
// 25 ms of a run, while the child is idle and waiting for the next
// request.
type speedometer struct {
	ref     *reference
	last    time.Time
	samples []float64
	spent   time.Duration // total time in the reference work, ever
}

func newSpeedometer() *speedometer {
	sp := &speedometer{ref: newReference()}
	for i := 0; i < 20; i++ { // fault the table in, warm the caches
		sp.ref.run()
	}
	return sp
}

// tick takes a sample if the last one is old enough.
func (sp *speedometer) tick() {
	if time.Since(sp.last) < 25*time.Millisecond {
		return
	}
	sp.sample()
}

func (sp *speedometer) sample() {
	d := sp.ref.run()
	sp.spent += d
	sp.samples = append(sp.samples, d.Seconds())
	sp.last = time.Now()
}

// sensitivity is how much of a slow-down of the reference work shows in
// the served workloads: over 100 runs on a box whose speed swung between
// 0.78 and 1.36 of nominal, each workload's latency, throughput and CPU
// time followed the reference time to a power between 0.5 (compile_cold)
// and 0.8 (point_deep). The reference work misses the cache more than
// the server does, so it feels a busy neighbour more. One exponent for
// all five keeps every run-to-run spread under 4.5 %; unscaled they
// reach 27 %, scaled with exponent 1 they reach 10 %.
const sensitivity = 0.65

// scale is the factor that takes a time measured since the last reset
// to what it would have been at reference machine speed: below 1 when
// the machine ran slow. Rates are divided by it.
func (sp *speedometer) scale() float64 {
	if len(sp.samples) == 0 {
		return 1
	}
	return math.Pow(referenceUnit.Seconds()/median(sp.samples), sensitivity)
}

func (sp *speedometer) reset() { sp.samples = sp.samples[:0] }
