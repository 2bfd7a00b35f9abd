package engine

import "testing"

// Pinned allocation counts for the arena storage (ISSUE 8 satellite 2):
// the whole point of the columnar rewrite is that the per-tuple costs —
// string-encoded keys, per-row []int32 copies, per-probe map lookups —
// are gone, so these pins fail if any of them creeps back.
//
// The pins hold only when callers reuse argument buffers (the engine's
// hot paths do: headBuf, colsBuf, valsBuf); a composite-literal argument
// in the measured closure would charge the test its own allocation.

// TestRelationSteadyStateAllocs pins duplicate Insert, Contains, and an
// indexed Match at ZERO allocations per operation.
func TestRelationSteadyStateAllocs(t *testing.T) {
	r := NewRelation(3)
	buf := make(Tuple, 3)
	for i := 0; i < 1024; i++ {
		buf[0], buf[1], buf[2] = int32(i), int32(i%8), int32(i/8)
		r.Insert(buf)
	}
	cols := []int{1}
	vals := []int32{3}
	r.Match(cols, vals) // build the index outside the measurement
	dup := Tuple{500, 500 % 8, 500 / 8}
	allocs := testing.AllocsPerRun(200, func() {
		if r.Insert(dup) {
			t.Fatal("dup insert reported new")
		}
		if !r.Contains(dup) {
			t.Fatal("membership lost")
		}
		rows := r.Match(cols, vals)
		if _, ok := rows.Next(); !ok {
			t.Fatal("index probe lost rows")
		}
	})
	if allocs != 0 {
		t.Errorf("steady-state Insert+Contains+Match = %.0f allocs/op, want 0", allocs)
	}
}

// TestRelationFreshInsertAllocs pins 1000 fresh inserts (with one live
// index being maintained) to the amortized-growth budget: arena, table,
// index slot and next-chain doublings, with no per-bucket allocation —
// measured at 38 total, pinned at 57. A regression to per-bucket slices
// (98 with eight buckets) or per-tuple allocation (≥1000) fails loudly.
func TestRelationFreshInsertAllocs(t *testing.T) {
	cols := []int{1}
	vals := []int32{3}
	buf := make(Tuple, 3)
	allocs := testing.AllocsPerRun(20, func() {
		r := NewRelation(3)
		r.Match(cols, vals) // index exists from the start: every insert maintains it
		for i := 0; i < 1000; i++ {
			buf[0], buf[1], buf[2] = int32(i), int32(i%8), int32(i/8)
			if !r.Insert(buf) {
				t.Fatal("fresh insert reported duplicate")
			}
		}
	})
	const limit = 57
	if allocs > limit {
		t.Errorf("1000 fresh inserts = %.0f allocs, limit %d (per-tuple allocation crept back?)", allocs, limit)
	}
}

// TestRelationCloneAllocs pins the copy-on-write Clone at one allocation
// (the Relation header) regardless of size — the seed's Clone re-inserted
// every tuple.
func TestRelationCloneAllocs(t *testing.T) {
	r := NewRelation(3)
	buf := make(Tuple, 3)
	for i := 0; i < 4096; i++ {
		buf[0], buf[1], buf[2] = int32(i), int32(i%64), int32(i/64)
		r.Insert(buf)
	}
	allocs := testing.AllocsPerRun(100, func() {
		c := r.Clone()
		if c.Len() != r.Len() {
			t.Fatal("clone lost rows")
		}
	})
	if allocs > 1 {
		t.Errorf("Clone = %.0f allocs/op, want ≤1 (O(1) copy-on-write)", allocs)
	}
}
