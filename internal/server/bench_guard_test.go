package server

// Allocation-ceiling guard for the served path: the in-process twins of
// the point_deep and compile_cold benchmark workloads, with serve's
// default flight recorder. It is the served half of the root package's
// TestBenchAllocCeilings, which pins the engine alone. Allocation counts
// are deterministic per workload, so a breach is a real regression, not
// runner noise. The ceilings sit at about 1.5× the allocs/op measured
// when they were pinned (EXPERIMENTS.md, "The always-on evaluation
// record"). Like the engine guard it runs only when EXISTDLOG_BENCH_GUARD
// is set (the CI bench job sets it).

import (
	"os"
	"testing"
)

func TestServedAllocCeilings(t *testing.T) {
	if os.Getenv("EXISTDLOG_BENCH_GUARD") == "" {
		t.Skip("set EXISTDLOG_BENCH_GUARD=1 to run the served alloc-ceiling guard (the CI bench job does)")
	}
	cases := []struct {
		name    string
		ceiling int64 // allocs/op; measured value in the comment
		bench   func(*testing.B)
	}{
		// measured 6,580 allocs/op.
		{"QueryPointDeep/flight1024", 9_900, func(b *testing.B) { benchPointDeep(b, 1024) }},
		// measured 392 allocs/op.
		{"CompileCold/flight1024", 590, func(b *testing.B) { benchCompileCold(b, 1024) }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			r := testing.Benchmark(c.bench)
			if r.N == 0 {
				t.Fatalf("%s: the benchmark failed before timing any op", c.name)
			}
			if got := r.AllocsPerOp(); got > c.ceiling {
				t.Errorf("%s: %d allocs/op exceeds the pinned ceiling %d (run Benchmark%s with -benchmem to localize)",
					c.name, got, c.ceiling, c.name)
			} else {
				t.Logf("%s: %d allocs/op (ceiling %d), %v/op over %d iterations",
					c.name, got, c.ceiling, r.NsPerOp(), r.N)
			}
		})
	}
}
