package server

// Allocation-ceiling guard for the served path: the in-process twins of
// the point_deep, compile_cold, closure_wide, exists_cut and mixed_rw
// benchmark workloads, with serve's default flight recorder. It is the
// served half of the root package's TestBenchAllocCeilings, which pins the
// engine alone. Allocation counts are deterministic per workload, so a
// breach is a real regression, not runner noise. The allocs/op ceilings
// sit at about 1.5× the value measured when they were pinned, the bytes/op
// ceilings at about 1.3× (a membership table per delta on the wide twins,
// a per-pass record on an untraced point_deep request, or derived storage
// grown by doubling instead of sized from the entry's last run, would
// breach them); EXPERIMENTS.md, "Relations by slot", "One plan per rule
// version and order", "No pass timeline without a trace", "Derived
// storage allocated once" and "Answer from the accepting state", has the
// measurements. Like the engine guard it runs only when
// EXISTDLOG_BENCH_GUARD is set (the CI bench job sets it).

import (
	"os"
	"testing"
)

func TestServedAllocCeilings(t *testing.T) {
	if os.Getenv("EXISTDLOG_BENCH_GUARD") == "" {
		t.Skip("set EXISTDLOG_BENCH_GUARD=1 to run the served alloc-ceiling guard (the CI bench job does)")
	}
	cases := []struct {
		name   string
		allocs int64 // allocs/op ceiling (0: unpinned); measured value in the comment
		bytes  int64 // B/op ceiling (0: unpinned); measured value in the comment
		bench  func(*testing.B)
	}{
		// measured 156 allocs/op, 62,440 B/op (-benchtime 3000x; 217
		// allocs/op while every request compiled its program).
		{"QueryPointDeep/flight1024", 234, 85_000, func(b *testing.B) { benchPointDeep(b, 1024) }},
		// measured 179 allocs/op, 19,300 B/op (289 allocs/op, 23,800 B/op
		// while every request compiled its program).
		{"CompileCold/flight1024", 270, 25_000, func(b *testing.B) { benchCompileCold(b, 1024) }},
		// measured 1,542,800 B/op.
		{"QueryClosure/flight1024", 0, 2_000_000, func(b *testing.B) { benchClosure(b, 1024) }},
		// measured 264 allocs/op, 436,300 B/op (385 allocs/op while every
		// request compiled its program).
		{"QueryExistsCut/flight1024", 396, 573_000, func(b *testing.B) { benchExistsCut(b, 1024) }},
		// measured 529 allocs/op, 327,000 B/op (-benchtime 3000x; 651
		// allocs/op, 332,700 B/op while every request compiled its
		// program).
		{"MixedRW/flight1024", 790, 433_000, func(b *testing.B) { benchMixedRW(b, 1024) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := testing.Benchmark(c.bench)
			if r.N == 0 {
				t.Fatalf("%s: the benchmark failed before timing any op", c.name)
			}
			if got := r.AllocsPerOp(); c.allocs > 0 && got > c.allocs {
				t.Errorf("%s: %d allocs/op exceeds the pinned ceiling %d (run Benchmark%s with -benchmem to localize)",
					c.name, got, c.allocs, c.name)
			}
			if got := r.AllocedBytesPerOp(); c.bytes > 0 && got > c.bytes {
				t.Errorf("%s: %d B/op exceeds the pinned ceiling %d (run Benchmark%s with -benchmem to localize)",
					c.name, got, c.bytes, c.name)
			}
			t.Logf("%s: %d allocs/op (ceiling %d), %d B/op (ceiling %d), %v/op over %d iterations",
				c.name, r.AllocsPerOp(), c.allocs, r.AllocedBytesPerOp(), c.bytes, r.NsPerOp(), r.N)
		})
	}
}
