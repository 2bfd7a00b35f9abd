package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"existdlog/internal/ast"
	"existdlog/internal/parser"
)

// assertTracePartition checks the partition invariant of ISSUE 3: the
// per-rule counters of every run, traced or not, must sum exactly to the
// aggregate Stats — Emitted to Derivations, Facts to FactsDerived, Duplicates to
// DuplicateHits, JoinProbes to JoinProbes — and the pass timeline's fact
// counts and cut events must agree with FactsDerived and RulesRetired.
func assertTracePartition(t *testing.T, res *Result, label, src string) {
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
	passFacts := int64(0)
	for _, p := range m.Passes {
		passFacts += int64(p.Facts)
	}
	if passFacts != int64(s.FactsDerived) {
		t.Fatalf("%s: pass facts sum %d != FactsDerived %d\n%s",
			label, passFacts, s.FactsDerived, src)
	}
	if m.Retired() != s.RulesRetired {
		t.Fatalf("%s: %d cut events recorded, Stats.RulesRetired = %d\n%s",
			label, m.Retired(), s.RulesRetired, src)
	}
}

// assertOrders checks what Options.Trace adds to the always-on record:
// with Trace and ReorderJoins both on, every pass carries one join order
// per version it planned (skipped versions included); otherwise no pass
// carries any.
func assertOrders(t *testing.T, res *Result, opt Options, label, src string) {
	t.Helper()
	for _, p := range res.Trace.Passes {
		want := 0
		if opt.Trace && opt.ReorderJoins {
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
// off, planner on and off, Trace on and off), every run's per-rule
// counters partition its Stats, for the engine and the naive oracle
// alike, and the engine's passes carry join orders exactly when Trace
// and the planner are both on.
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
		for _, opt := range []Options{
			{BooleanCut: cut},
			{BooleanCut: cut, Trace: true},
			{BooleanCut: cut, ReorderJoins: true},
			{BooleanCut: cut, ReorderJoins: true, Trace: true},
		} {
			label := fmt.Sprintf("trial %d trace=%v reorder=%v", trial, opt.Trace, opt.ReorderJoins)
			sn, err := Eval(p, db, opt)
			if err != nil {
				t.Fatalf("%s semi-naive: %v\n%s", label, err, src)
			}
			assertTracePartition(t, sn, label+" semi-naive", src)
			assertOrders(t, sn, opt, label+" semi-naive", src)

			// The naive oracle cannot promise the same pass timeline (it
			// has no deltas), but its per-rule counters must still
			// partition its own Stats.
			nv, err := evalNaive(context.Background(), p, db, opt)
			if err != nil {
				t.Fatalf("%s naive: %v\n%s", label, err, src)
			}
			assertTracePartition(t, nv, label+" naive", src)
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
// gone, so what remains is per-pass bookkeeping. The limits leave ~10%
// headroom for incidental runtime variation; reintroducing a per-fact,
// per-probe, or per-emission allocation would blow through them (the
// chain run alone makes tens of thousands of probe and emit calls).
const (
	seedChainAllocLimit = 1900
	seedProbeAllocLimit = 180
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
// baseline, and its Stats to the seed's exactly. Trace off still builds
// the per-rule counters and one pass record per pass (Trace adds only the
// planner's join orders), so the pin covers that record: per-pass
// bookkeeping fits the headroom, per-fact or per-probe allocation would
// not.
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

	// The seed's Stats for the 10-chain closure, pinned: instrumentation
	// must not change what is counted.
	res, err := Eval(p, chainDB(10), Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := Stats{Iterations: 11, FactsDerived: 55, Derivations: 55, JoinProbes: 122}
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
