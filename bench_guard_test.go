package existdlog

// Allocation-ceiling guard for the columnar arena storage (ISSUE 8
// satellite 5). The arena rewrite's whole value is its allocation
// profile — tuple fingerprints instead of string keys, flat []int32
// instead of per-row slices — so CI re-runs the engine benchmark-pair
// workloads under testing.Benchmark and FAILS when allocs/op creep past
// the pinned ceilings, rather than just logging numbers nobody reads.
//
// Ceilings carry ~50% headroom over the values measured on the
// machine that pinned them (see EXPERIMENTS.md "Columnar arena storage"
// for the measured table). Allocation counts, unlike wall-clock, are
// deterministic per workload, so a ceiling breach means a real
// regression — e.g. per-tuple keys or per-probe boxing coming back —
// not a noisy runner.
//
// The guard costs a few seconds of benchmarking, so it only runs when
// EXISTDLOG_BENCH_GUARD is set (the CI bench job sets it); ordinary
// `go test ./...` skips it.

import (
	"fmt"
	"math/rand"
	"os"
	"testing"
)

func TestBenchAllocCeilings(t *testing.T) {
	if os.Getenv("EXISTDLOG_BENCH_GUARD") == "" {
		t.Skip("set EXISTDLOG_BENCH_GUARD=1 to run the alloc-ceiling guard (the CI bench job does)")
	}

	chain := func(n int) *Database {
		db := NewDatabase()
		for i := 0; i < n; i++ {
			db.Add("p", fmt.Sprint(i), fmt.Sprint(i+1))
		}
		return db
	}
	tcProg := MustParseProgram(`
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
`)

	cases := []struct {
		name    string
		ceiling int64 // allocs/op; measured value in the comment
		opts    EvalOptions
		prog    *Program
		db      *Database
	}{
		// BenchmarkEngineSemiNaiveTCChain512: measured 164 allocs/op
		// (6,082 when the default joined in body order and built an index
		// on every pass's delta; seed storage: 1,876,170).
		{"SemiNaiveTCChain512", 250, EvalOptions{}, tcProg, chain(512)},
		// The trace pair's disabled side (BenchmarkEvalTraceOff's
		// chain-10 workload, minus the harness's option plumbing):
		// measured 111 allocs/op here, with no pass record kept (188 in
		// body order; seed storage: 7,828).
		{"EvalTraceOffChain10", 170, EvalOptions{}, tcProg, chain(10)},
		// exists_cut's shape, optimized and evaluated repeatedly over one
		// Database as the server evaluates one store version: measured
		// 291 allocs/op (26,983 when every evaluation rebuilt the base
		// indexes into per-bucket slices). Per-request index rebuilds or
		// per-bucket allocation would blow through the ceiling.
		{"ExistsCut", 440, EvalOptions{BooleanCut: true}, existsCutProgram(t), existsCutDB()},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			r := testing.Benchmark(func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := Eval(c.prog, c.db, c.opts); err != nil {
						b.Fatal(err)
					}
				}
			})
			if got := r.AllocsPerOp(); got > c.ceiling {
				t.Errorf("%s: %d allocs/op exceeds the pinned ceiling %d — per-tuple allocation has crept back into the arena paths (run the %s benchmarks with -benchmem to localize)",
					c.name, got, c.ceiling, c.name)
			} else {
				t.Logf("%s: %d allocs/op (ceiling %d), %v/op over %d iterations",
					c.name, got, c.ceiling, r.NsPerOp(), r.N)
			}
		})
	}
}

// existsCutProgram is the exists_cut workload's program through Optimize:
// reach projects to a unary predicate and the heartbeat boolean splits off
// to be cut.
func existsCutProgram(t *testing.T) *Program {
	opt, err := Optimize(MustParseProgram(`
live(R) :- edge(R), reach(R,S), heartbeat(C).
reach(R,S) :- link(R,M), reach(M,S).
reach(R,S) :- uplink(R,S).
?- live(R).
`), DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	return opt.Program
}

// existsCutDB is an exists_cut-shaped database: 200 access chains of 60
// linked routers, four in five uplinked to three of 12 cores at their
// tail, a quarter of those bridged into a random 400-node mesh, 1 000
// edge routers, and a disconnected heartbeat.
func existsCutDB() *Database {
	const chains, hops, mesh, cores = 200, 60, 400, 12
	rng := rand.New(rand.NewSource(1))
	db := NewDatabase()
	for c := 0; c < chains; c++ {
		tail := (c+1)*hops - 1
		for i := c * hops; i < tail; i++ {
			db.Add("link", fmt.Sprintf("r%d", i), fmt.Sprintf("r%d", i+1))
		}
		if c%5 == 4 { // dead end: nothing down this chain uplinks
			continue
		}
		for _, k := range rng.Perm(cores)[:3] {
			db.Add("uplink", fmt.Sprintf("r%d", tail), fmt.Sprintf("core%d", k))
		}
		if c%4 == 0 {
			db.Add("link", fmt.Sprintf("r%d", tail), fmt.Sprintf("m%d", rng.Intn(mesh)))
		}
	}
	for i := 0; i < 2*mesh; i++ {
		db.Add("link", fmt.Sprintf("m%d", rng.Intn(mesh)), fmt.Sprintf("m%d", rng.Intn(mesh)))
	}
	for i := 0; i < mesh/4; i++ {
		db.Add("uplink", fmt.Sprintf("m%d", rng.Intn(mesh)), fmt.Sprintf("core%d", rng.Intn(cores)))
	}
	for i := 0; i < 950; i++ {
		db.Add("edge", fmt.Sprintf("r%d", rng.Intn(chains*hops)))
	}
	for i := 0; i < 50; i++ {
		db.Add("edge", fmt.Sprintf("m%d", rng.Intn(mesh)))
	}
	db.Add("heartbeat", "collector_a")
	db.Add("heartbeat", "collector_b")
	return db
}

// TestPlannerJoinProbeCeilings pins exact JoinProbes counts for a badly
// ordered rule (a cross product first in body order) and the
// transitive-closure chain. Unlike allocs these need no benchmark loop or
// headroom: probe counts are a pure function of program, database, and
// planner, so any drift is a real planner (or join-loop) change and the
// pinned numbers should be re-derived consciously, not absorbed.
func TestPlannerJoinProbeCeilings(t *testing.T) {
	reorderProg := MustParseProgram(`
ans(X,W) :- big(Y,Z), sel(X,Y), big(Z,W).
?- ans(X,W).
`)
	reorderDB := NewDatabase()
	for i := 0; i < 2000; i++ {
		reorderDB.Add("big", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	reorderDB.Add("sel", "s", "3")
	tcProg := MustParseProgram(`
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
`)
	tcDB := NewDatabase()
	for i := 0; i < 512; i++ {
		tcDB.Add("p", fmt.Sprint(i), fmt.Sprint(i+1))
	}

	cases := []struct {
		name string
		want int64
		prog *Program
		db   *Database
	}{
		{"ReorderAblation/planner", 3, reorderProg, reorderDB},
		{"TCChain512/planner", 131841, tcProg, tcDB},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			res, err := Eval(c.prog, c.db, EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stats.JoinProbes != c.want {
				t.Errorf("%s: JoinProbes = %d, want exactly %d (probe counts are deterministic; re-derive the pin if the planner changed on purpose)",
					c.name, res.Stats.JoinProbes, c.want)
			}
		})
	}
}
