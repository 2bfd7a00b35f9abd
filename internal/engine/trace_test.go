package engine

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"existdlog/internal/ast"
	"existdlog/internal/parser"
	"existdlog/internal/trace"
)

// assertRulePartition checks the partition invariant of ISSUE 3: the
// per-rule counters of every run, traced or not, must sum exactly to the
// aggregate Stats — Emitted to Derivations, Facts to FactsDerived, Duplicates to
// DuplicateHits, JoinProbes to JoinProbes — and the cut events must agree
// with RulesRetired.
func assertRulePartition(t *testing.T, res *Result, label, src string) {
	t.Helper()
	m := res.Trace
	if m == nil {
		t.Fatalf("%s: Trace is nil\n%s", label, src)
	}
	emitted, facts, duplicates, probes := m.Totals()
	s := res.Stats
	if emitted != s.Derivations || facts != int64(s.FactsDerived) ||
		duplicates != s.DuplicateHits || probes != s.JoinProbes {
		t.Fatalf("%s: per-rule sums do not partition Stats\n"+
			"sums:  emitted=%d facts=%d dup=%d probes=%d\n"+
			"stats: %+v\n%s", label, emitted, facts, duplicates, probes, s, src)
	}
	if m.Retired() != s.RulesRetired {
		t.Fatalf("%s: %d cut events recorded, Stats.RulesRetired = %d\n%s",
			label, m.Retired(), s.RulesRetired, src)
	}
}

// assertTracePartition extends assertRulePartition to a traced run's pass
// timeline: its per-pass fact counts must sum to FactsDerived.
func assertTracePartition(t *testing.T, res *Result, label, src string) {
	t.Helper()
	assertRulePartition(t, res, label, src)
	passFacts := int64(0)
	for _, p := range res.Trace.Passes {
		passFacts += int64(p.Facts)
	}
	if passFacts != int64(res.Stats.FactsDerived) {
		t.Fatalf("%s: pass facts sum %d != FactsDerived %d\n%s",
			label, passFacts, res.Stats.FactsDerived, src)
	}
}

// assertTimeline checks what Options.Trace decides about the pass
// timeline: a traced run keeps one PassTimes entry per pass record under
// PassTimes, an untraced one keeps neither pass records nor PassTimes,
// whatever PassTimes says.
func assertTimeline(t *testing.T, res *Result, opt Options, label, src string) {
	t.Helper()
	if !opt.Trace {
		if len(res.Trace.Passes) != 0 || len(res.PassTimes) != 0 {
			t.Fatalf("%s: untraced run kept %d pass records and %d PassTimes\n%s",
				label, len(res.Trace.Passes), len(res.PassTimes), src)
		}
		return
	}
	if opt.PassTimes && len(res.PassTimes) != len(res.Trace.Passes) {
		t.Fatalf("%s: %d PassTimes for %d pass records\n%s",
			label, len(res.PassTimes), len(res.Trace.Passes), src)
	}
}

// bucketDeltas buckets a traced run's recorded delta sizes by
// trace.SizeBounds: the histogram the evaluation fed at its barriers must
// equal it.
func bucketDeltas(m *trace.Metrics) trace.DeltaHistogram {
	var h trace.DeltaHistogram
	for _, p := range m.Passes {
		for _, d := range p.Deltas {
			h.Counts[sort.SearchFloat64s(trace.SizeBounds[:], float64(d.Size))]++
			h.Sum += int64(d.Size)
		}
	}
	return h
}

// assertOrders checks what Options.Trace adds to the always-on record:
// with Trace on, every pass carries one join order per version it
// planned (skipped versions included); otherwise no pass carries any.
func assertOrders(t *testing.T, res *Result, opt Options, label, src string) {
	t.Helper()
	for _, p := range res.Trace.Passes {
		want := 0
		if opt.Trace {
			want = p.Versions
		}
		if len(p.Orders) != want {
			t.Fatalf("%s: pass %d has %d orders for %d versions, want %d\n%s",
				label, p.Pass, len(p.Orders), p.Versions, want, src)
		}
	}
}

// TestTraceMetricsConsistency is the metrics half of the trace property
// test: over 200 random programs (positive and stratified, cut on and
// off, Trace on and off, PassTimes always asked for),
// every run's per-rule counters partition its Stats, for the engine and
// the naive oracle alike; a traced run's pass facts sum to FactsDerived,
// and an untraced run keeps no pass timeline; the engine's passes carry
// join orders exactly when Trace is on; and the
// delta histogram is the same with and without Trace, equal under Trace
// to the bucketing of the pass records' delta sizes.
func TestTraceMetricsConsistency(t *testing.T) {
	rng := rand.New(rand.NewSource(777001))
	for trial := 0; trial < 200; trial++ {
		var src string
		if trial%2 == 0 {
			src = randomProgram(rng)
		} else {
			src = randomStratifiedProgram(rng)
		}
		p, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		db := NewDatabase()
		n := 3 + rng.Intn(5)
		for i := 0; i < 2*n; i++ {
			db.Add("e", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
			db.Add("f", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
		}
		cut := trial%4 < 2
		var untraced trace.DeltaHistogram
		for _, opt := range []Options{
			{BooleanCut: cut, PassTimes: true},
			{BooleanCut: cut, PassTimes: true, Trace: true},
		} {
			label := fmt.Sprintf("trial %d trace=%v", trial, opt.Trace)
			sn, err := Eval(p, db, opt)
			if err != nil {
				t.Fatalf("%s semi-naive: %v\n%s", label, err, src)
			}
			if opt.Trace {
				assertTracePartition(t, sn, label+" semi-naive", src)
				if got, want := sn.Trace.Deltas, bucketDeltas(sn.Trace); got != want {
					t.Fatalf("%s: delta histogram %+v, pass records bucket to %+v\n%s", label, got, want, src)
				}
				if sn.Trace.Deltas != untraced {
					t.Fatalf("%s: delta histogram %+v traced, %+v untraced\n%s", label, sn.Trace.Deltas, untraced, src)
				}
			} else {
				assertRulePartition(t, sn, label+" semi-naive", src)
				untraced = sn.Trace.Deltas
			}
			assertTimeline(t, sn, opt, label+" semi-naive", src)
			assertOrders(t, sn, opt, label+" semi-naive", src)

			// The naive oracle cannot promise the same pass timeline (it
			// has no deltas), but its per-rule counters must still
			// partition its own Stats.
			nv, err := evalNaive(context.Background(), p, db, opt)
			if err != nil {
				t.Fatalf("%s naive: %v\n%s", label, err, src)
			}
			if opt.Trace {
				assertTracePartition(t, nv, label+" naive", src)
			} else {
				assertRulePartition(t, nv, label+" naive", src)
			}
			assertTimeline(t, nv, opt, label+" naive", src)
		}
	}
}

// TestTraceDoesNotPerturbEvaluation pins the observer effect to zero:
// enabling Trace must not change answers, Stats, or insertion order.
func TestTraceDoesNotPerturbEvaluation(t *testing.T) {
	rng := rand.New(rand.NewSource(777002))
	for trial := 0; trial < 40; trial++ {
		src := randomStratifiedProgram(rng)
		p, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		db := NewDatabase()
		n := 3 + rng.Intn(4)
		for i := 0; i < 2*n; i++ {
			db.Add("e", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
			db.Add("f", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
		}
		plain, err := Eval(p, db, Options{BooleanCut: true})
		if err != nil {
			t.Fatal(err)
		}
		traced, err := Eval(p, db, Options{BooleanCut: true, Trace: true})
		if err != nil {
			t.Fatal(err)
		}
		if plain.Stats != traced.Stats {
			t.Fatalf("trial %d: tracing changed Stats\nplain:  %+v\ntraced: %+v\n%s",
				trial, plain.Stats, traced.Stats, src)
		}
		for key := range p.Derived {
			if fmt.Sprint(orderedFacts(plain, key)) != fmt.Sprint(orderedFacts(traced, key)) {
				t.Fatalf("trial %d: tracing changed %s insertion order\n%s", trial, key, src)
			}
		}
	}
}

// replayNode checks that one provenance tree node is a genuine rule
// instance: the node's fact matches the rule's head under a substitution
// that simultaneously matches each positive, non-builtin body literal to
// the corresponding child fact, in body order (negated literals have no
// recorded body facts; builtins never contribute FactRefs).
func replayNode(p *ast.Program, res *Result, node *Tree) error {
	if node.Rule < 0 {
		if p.Derived[node.Fact.Key] {
			return fmt.Errorf("derived fact %s(%v) recorded as a leaf",
				node.Fact.Key, res.RowStrings(node.Fact.Row))
		}
		if len(node.Children) != 0 {
			return fmt.Errorf("base fact %s has children", node.Fact.Key)
		}
		return nil
	}
	if node.Rule >= len(p.Rules) {
		return fmt.Errorf("rule index %d out of range", node.Rule)
	}
	r := p.Rules[node.Rule]
	sub := map[string]string{}
	match := func(a ast.Atom, row []string) error {
		if a.Key() != "" && len(a.Args) != len(row) {
			return fmt.Errorf("arity mismatch matching %s against %v", a, row)
		}
		for i, term := range a.Args {
			switch term.Kind {
			case ast.Constant:
				if term.Name != row[i] {
					return fmt.Errorf("constant %s != %s in %s", term.Name, row[i], a)
				}
			case ast.Variable:
				if term.IsAnon() {
					continue
				}
				if v, ok := sub[term.Name]; ok {
					if v != row[i] {
						return fmt.Errorf("variable %s bound to both %s and %s in %s",
							term.Name, v, row[i], a)
					}
				} else {
					sub[term.Name] = row[i]
				}
			}
		}
		return nil
	}
	if r.Head.Key() != node.Fact.Key {
		return fmt.Errorf("node %s produced by rule %d with head %s",
			node.Fact.Key, node.Rule+1, r.Head.Key())
	}
	if err := match(r.Head, res.RowStrings(node.Fact.Row)); err != nil {
		return fmt.Errorf("head of rule %d: %w", node.Rule+1, err)
	}
	ci := 0
	for _, b := range r.Body {
		if b.Negated {
			continue // negated literals contribute no body facts
		}
		if ci >= len(node.Children) {
			return fmt.Errorf("rule %d: body literal %s has no recorded child", node.Rule+1, b)
		}
		c := node.Children[ci]
		ci++
		if b.Key() != c.Fact.Key {
			return fmt.Errorf("rule %d: body literal %s justified by %s", node.Rule+1, b, c.Fact.Key)
		}
		if err := match(b, res.RowStrings(c.Fact.Row)); err != nil {
			return fmt.Errorf("rule %d body: %w", node.Rule+1, err)
		}
	}
	if ci != len(node.Children) {
		return fmt.Errorf("rule %d: %d children recorded, %d positive literals",
			node.Rule+1, len(node.Children), ci)
	}
	for _, c := range node.Children {
		if err := replayNode(p, res, c); err != nil {
			return err
		}
	}
	return nil
}

// TestWhyTreesReplay is the provenance half of the ISSUE 3 property test:
// over 200 random programs, every derived fact's Why tree replays — each
// node is a rule instance whose body atoms are exactly its children's
// heads under one substitution, and every leaf is an EDB fact.
func TestWhyTreesReplay(t *testing.T) {
	rng := rand.New(rand.NewSource(777003))
	for trial := 0; trial < 200; trial++ {
		src := randomProgram(rng)
		p, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		db := NewDatabase()
		n := 3 + rng.Intn(4)
		for i := 0; i < 2*n; i++ {
			db.Add("e", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
			db.Add("f", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
		}
		res, err := Eval(p, db, Options{TrackProvenance: true})
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		for key := range p.Derived {
			for _, row := range res.DB.Facts(key) {
				tree, ok := res.Derivation(key, row)
				if !ok {
					t.Fatalf("trial %d: no derivation for %s(%v)\n%s", trial, key, row, src)
				}
				if err := replayNode(p, res, tree); err != nil {
					t.Fatalf("trial %d: tree for %s(%v) does not replay: %v\n%s",
						trial, key, row, err, src)
				}
			}
		}
	}
}

// TestTraceIncrementalPartition extends the partition invariant to the
// incremental paths: Update and Retract runs with Trace set must also
// have per-rule counters summing to their own Stats.
func TestTraceIncrementalPartition(t *testing.T) {
	p := mustParse(t, tcSrc)
	db := chainDB(8)
	base, err := Eval(p, db, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	assertTracePartition(t, base, "eval", tcSrc)

	added := NewDatabase()
	added.Add("p", "8", "9")
	upd, err := Update(p, base, added, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	assertTracePartition(t, upd, "update", tcSrc)
	if len(upd.Trace.Passes) == 0 {
		t.Fatal("update recorded no passes")
	}

	removed := NewDatabase()
	removed.Add("p", "3", "4")
	ret, err := Retract(p, upd, removed, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	assertTracePartition(t, ret, "retract", tcSrc)
}

// --- allocation regression for the always-on record --------------------

// Arena baselines, re-pinned after the columnar storage rewrite (ISSUE 8)
// with exactly these fixtures: Eval(tcSrc, chainDB(30)) = 1715 allocs
// (seed: 7828), the probe-heavy join below = 154 (seed: 8136) — the
// per-tuple copies, string keys, and per-emission head allocations are
// gone, so what remains is per-pass bookkeeping. Re-pinned again once an
// untraced Eval stopped keeping a pass record per pass: 371 and 98
// allocs (407 and 101 with the records). Re-pinned once every
// evaluation ordered its joins with the planner: the chain went 363 → 120
// allocs (body order built an index on each pass's delta; the planner
// reads the delta and probes the base index) and the probe-heavy join
// 99 → 100. The limits sit at about 1.5× those; reintroducing a per-fact, per-probe or per-emission allocation
// would blow through them (the chain run alone makes tens of thousands of
// probe and emit calls). A per-pass record on a 31-pass run would not:
// the served QueryPointDeep ceilings (about 200 passes) guard that.
const (
	seedChainAllocLimit = 180
	seedProbeAllocLimit = 150
)

const probeSrc = `
q(X,Z) :- e(X,Y), f(Y,Z).
?- q(X,Z).
`

func probeDB() *Database {
	db := NewDatabase()
	for i := 0; i < 100; i++ {
		db.Add("e", fmt.Sprint(i), fmt.Sprint(i%10))
		db.Add("f", fmt.Sprint(i%10), fmt.Sprint(i))
	}
	return db
}

// TestTraceDisabledAllocs pins an Eval with Trace off within the seed
// baseline, and its Stats to the seed's exactly. Trace off builds the
// per-rule counters and the delta-size histogram, neither of which
// allocates per pass, and no pass record (Trace adds the pass timeline and
// the planner's join orders), so the pin covers the untraced path as
// served: per-fact or per-probe allocation coming back would not fit the
// headroom.
func TestTraceDisabledAllocs(t *testing.T) {
	p := mustParse(t, tcSrc)
	db := chainDB(30)
	allocs := testing.AllocsPerRun(10, func() {
		if _, err := Eval(p, db, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > seedChainAllocLimit {
		t.Errorf("disabled-trace Eval allocates %.0f, seed baseline limit %d",
			allocs, seedChainAllocLimit)
	}
	t.Logf("chain: %.0f allocs (limit %d)", allocs, seedChainAllocLimit)

	pq := mustParse(t, probeSrc)
	dbq := probeDB()
	allocs = testing.AllocsPerRun(10, func() {
		if _, err := Eval(pq, dbq, Options{}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > seedProbeAllocLimit {
		t.Errorf("disabled-trace probe-heavy Eval allocates %.0f, seed baseline limit %d",
			allocs, seedProbeAllocLimit)
	}
	t.Logf("probe-heavy join: %.0f allocs (limit %d)", allocs, seedProbeAllocLimit)

	// The 10-chain closure's Stats, pinned: instrumentation must not
	// change what is counted.
	res, err := Eval(p, chainDB(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Iterations: 11, FactsDerived: 55, Derivations: 55, JoinProbes: 66}
	if res.Stats != want {
		t.Errorf("Stats = %+v, seed = %+v", res.Stats, want)
	}
	traced, err := Eval(p, chainDB(10), Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	if traced.Stats != want {
		t.Errorf("traced Stats = %+v, seed = %+v", traced.Stats, want)
	}
}

// BenchmarkEvalTraceOff / BenchmarkEvalTraceOn are the benchmark pair
// behind the alloc regression test: compare with
// go test -bench 'EvalTrace' -benchmem ./internal/engine/.
func BenchmarkEvalTraceOff(b *testing.B) { benchmarkEvalTrace(b, false) }
func BenchmarkEvalTraceOn(b *testing.B)  { benchmarkEvalTrace(b, true) }

func benchmarkEvalTrace(b *testing.B, on bool) {
	p, err := parser.ParseProgram(tcSrc)
	if err != nil {
		b.Fatal(err)
	}
	db := chainDB(30)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Eval(p, db, Options{Trace: on}); err != nil {
			b.Fatal(err)
		}
	}
}
