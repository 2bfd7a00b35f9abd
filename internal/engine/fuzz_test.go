package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"existdlog/internal/ast"
	"existdlog/internal/parser"
)

// randomProgram builds a random Datalog program over a small vocabulary:
// unary/binary derived predicates, recursion, self-joins, booleans.
func randomProgram(rng *rand.Rand) string {
	derived := []string{"d1", "d2", "d3"}
	base := []string{"e", "f"}
	var sb strings.Builder
	n := 2 + rng.Intn(5)
	for i := 0; i < n; i++ {
		h := derived[rng.Intn(len(derived))]
		switch rng.Intn(6) {
		case 0:
			fmt.Fprintf(&sb, "%s(X,Y) :- %s(X,Y).\n", h, base[rng.Intn(2)])
		case 1:
			fmt.Fprintf(&sb, "%s(X,Y) :- %s(X,Z), %s(Z,Y).\n",
				h, base[rng.Intn(2)], derived[rng.Intn(3)])
		case 2:
			fmt.Fprintf(&sb, "%s(X,Y) :- %s(X,Z), %s(Z,Y).\n",
				h, derived[rng.Intn(3)], base[rng.Intn(2)])
		case 3:
			fmt.Fprintf(&sb, "%s(X,X) :- %s(X,Y), %s(Y,X).\n",
				h, base[rng.Intn(2)], base[rng.Intn(2)])
		case 4:
			fmt.Fprintf(&sb, "%s(X,Y) :- %s(X,Y), %s(Y,Y).\n",
				h, derived[rng.Intn(3)], base[rng.Intn(2)])
		case 5:
			fmt.Fprintf(&sb, "%s(X,Y) :- %s(Y,X).\n", h, derived[rng.Intn(3)])
		}
	}
	// Guarantee every derived predicate has at least one grounding rule so
	// programs are not trivially empty.
	for _, d := range derived {
		fmt.Fprintf(&sb, "%s(X,Y) :- e(X,Y).\n", d)
	}
	sb.WriteString("?- d1(X,Y).\n")
	return sb.String()
}

// randomStratifiedProgram extends randomProgram with two strata of
// negation (s1 negates the d-layer, top may negate s1) and an optional
// boolean guard, so the differential tests cover stratified negation and
// the boolean cut, not just positive recursion. The layering is fixed —
// d* < s1 < top — so every generated program is stratifiable.
func randomStratifiedProgram(rng *rand.Rand) string {
	base := randomProgram(rng)
	var sb strings.Builder
	sb.WriteString(strings.Replace(base, "?- d1(X,Y).\n", "", 1))
	switch rng.Intn(3) {
	case 0:
		sb.WriteString("s1(X) :- d1(X,Y), not d2(Y,X).\n")
	case 1:
		sb.WriteString("s1(X) :- d1(X,Y), not d3(X,X).\n")
	case 2:
		sb.WriteString("s1(X) :- e(X,Y), not d1(X,Y).\n")
	}
	if rng.Intn(2) == 0 {
		sb.WriteString("s1(X) :- d2(X,X).\n")
	}
	if rng.Intn(2) == 0 {
		sb.WriteString("flag :- d2(U,V).\ntop(X) :- d3(X,Y), flag.\n")
	}
	if rng.Intn(2) == 0 {
		sb.WriteString("top(X) :- d1(X,Y), not s1(Y).\n")
	}
	sb.WriteString("top(X) :- s1(X).\n?- top(X).\n")
	return sb.String()
}

// The engine and the naive oracle must agree on every derived relation of
// random programs over random databases.
func TestNaiveSemiNaiveAgreeOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	for trial := 0; trial < 40; trial++ {
		src := randomProgram(rng)
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
		sn, err := Eval(p, db, Options{})
		if err != nil {
			t.Fatalf("trial %d semi-naive: %v\n%s", trial, err, src)
		}
		nv, err := evalNaive(context.Background(), p, db, Options{})
		if err != nil {
			t.Fatalf("trial %d naive: %v\n%s", trial, err, src)
		}
		for _, pred := range []string{"d1", "d2", "d3"} {
			a, b := sn.DB.Facts(pred), nv.DB.Facts(pred)
			if fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("trial %d: %s differs\nsemi-naive: %v\nnaive:      %v\nprogram:\n%s",
					trial, pred, a, b, src)
			}
		}
	}
}

// The boolean cut must never change query answers, on random programs
// extended with boolean guards.
func TestBooleanCutPreservesAnswersOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(2718))
	for trial := 0; trial < 30; trial++ {
		base := randomProgram(rng)
		src := strings.Replace(base, "?- d1(X,Y).\n", "", 1) +
			"top(X) :- d1(X,Y), flag.\nflag :- d2(U,V), marker(W).\n?- top(X).\n"
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
		if rng.Intn(2) == 0 {
			db.Add("marker", "m") // sometimes the boolean can never hold
		}
		on, err := Eval(p, db, Options{BooleanCut: true})
		if err != nil {
			t.Fatal(err)
		}
		off, err := Eval(p, db, Options{BooleanCut: false})
		if err != nil {
			t.Fatal(err)
		}
		a, b := on.Answers(p.Query), off.Answers(p.Query)
		if fmt.Sprint(a) != fmt.Sprint(b) {
			t.Fatalf("trial %d: cut changed answers\nwith:    %v\nwithout: %v\nprogram:\n%s",
				trial, a, b, src)
		}
	}
}

// Provenance trees must be well-founded and grounded in the database for
// every derived fact of random runs.
func TestProvenanceWellFoundedOnRandomPrograms(t *testing.T) {
	rng := rand.New(rand.NewSource(1618))
	for trial := 0; trial < 15; trial++ {
		src := randomProgram(rng)
		p, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		db := NewDatabase()
		n := 3 + rng.Intn(3)
		for i := 0; i < 2*n; i++ {
			db.Add("e", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
			db.Add("f", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
		}
		res, err := Eval(p, db, Options{TrackProvenance: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, row := range res.DB.Facts("d1") {
			tree, ok := res.Derivation("d1", row)
			if !ok {
				t.Fatalf("trial %d: no derivation for d1(%v)", trial, row)
			}
			var check func(n *Tree) bool
			check = func(n *Tree) bool {
				rel, ok := res.DB.Lookup(n.Fact.Key)
				if !ok || !rel.Contains(n.Fact.Row) {
					return false
				}
				if len(n.Children) == 0 && n.Rule != -1 {
					return false
				}
				for _, c := range n.Children {
					if !check(c) {
						return false
					}
				}
				return true
			}
			if !check(tree) {
				t.Fatalf("trial %d: ill-founded tree for d1(%v)", trial, row)
			}
		}
	}
}

// A badly ordered rule: body order joins a cross product first; the
// planner starts from the selective literal, so the whole join is three
// probes (the pin is exact: probe counts are deterministic).
func TestReorderJoinsReducesProbes(t *testing.T) {
	p, err := parser.ParseProgram(`
ans(X,W) :- big(Y,Z), sel(X,Y), big(Z,W).
?- ans(X,W).
`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	for i := 0; i < 60; i++ {
		db.Add("big", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	db.Add("sel", "s", "3")
	res, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := evalNaive(context.Background(), p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.DB.Facts("ans")) != fmt.Sprint(naive.DB.Facts("ans")) {
		t.Fatal("answers differ from the body-order oracle")
	}
	if res.Stats.JoinProbes != 3 {
		t.Errorf("JoinProbes = %d, want exactly 3", res.Stats.JoinProbes)
	}
}

// The planner must respect builtin binding requirements.
func TestReorderJoinsBuiltinsStayLegal(t *testing.T) {
	p, err := parser.ParseProgram(`
dist(Y,J) :- succ(I,J), dist(X,I), e(X,Y).
dist(Y,1) :- e(0,Y).
?- dist(X,I).
`)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	for i := 0; i < 5; i++ {
		db.Add("e", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	// Body order would hit succ with both arguments free in the startup
	// pass; the planner must postpone it.
	res, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DB.Count("dist") != 5 {
		t.Errorf("dist = %v", res.DB.Facts("dist"))
	}

	// Negation + builtin mixes: the planner defers negated literals to
	// the tail and keeps builtin binding requirements, with answers
	// identical to the body-order oracle's.
	mixes := []string{`
path(X,Y) :- e(X,Y).
path(X,Z) :- path(X,Y), e(Y,Z), not blocked(Y,Z), lt(X,Z).
?- path(X,Z).
`, `
r(Y,J) :- dist(X,I), succ(I,J), e(X,Y), not blocked(X,Y).
dist(Y,1) :- e(0,Y).
?- r(Y,J).
`}
	mdb := NewDatabase()
	for i := 0; i < 6; i++ {
		mdb.Add("e", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	mdb.Add("blocked", "2", "3")
	for _, src := range mixes {
		mp, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatal(err)
		}
		naive, err := evalNaive(context.Background(), mp, mdb, Options{})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		want := fmt.Sprint(naive.Answers(mp.Query))
		for run := 0; run < 2; run++ { // replanning must be deterministic
			res, err := Eval(mp, mdb, Options{})
			if err != nil {
				t.Fatalf("%v\n%s", err, src)
			}
			if got := fmt.Sprint(res.Answers(mp.Query)); got != want {
				t.Fatalf("run=%d: answers diverge\ngot:  %s\nwant: %s\n%s", run, got, want, src)
			}
		}
	}

	// The forced fallback: a body of nothing but unready builtins and a
	// negated literal has no legal starting point. The planner forces the
	// textually first builtin (whose bindings then make the next one
	// ready), so the inevitable unbound-builtin error is deterministic —
	// same error, every run.
	bad, err := parser.ParseProgram(`
q(A,C) :- succ(A,B), succ(B,C), not blocked(A,C).
?- q(A,C).
`)
	if err != nil {
		t.Fatal(err)
	}
	var msgs []string
	for run := 0; run < 4; run++ {
		_, err := Eval(bad, mdb, Options{})
		if err == nil {
			t.Fatalf("run=%d: unbound succ must error", run)
		}
		msgs = append(msgs, err.Error())
	}
	for _, m := range msgs[1:] {
		if m != msgs[0] {
			t.Fatalf("unbound-builtin error not deterministic: %q vs %q", msgs[0], m)
		}
	}
}

// arityConsistent reports whether every predicate key is used with one
// arity across rules, query, and facts. Program-internal consistency is
// already enforced by Validate; facts can still clash with the program (or
// each other), which Database.Relation treats as an upstream programming
// error and panics on — the fuzzer must filter those inputs out.
func arityConsistent(p *ast.Program, facts []ast.Atom) bool {
	arity := map[string]int{}
	check := func(a ast.Atom) bool {
		if n, ok := arity[a.Key()]; ok {
			return n == a.Arity()
		}
		arity[a.Key()] = a.Arity()
		return true
	}
	for _, r := range p.Rules {
		if !check(r.Head) {
			return false
		}
		for _, b := range r.Body {
			if !check(b) {
				return false
			}
		}
	}
	if p.Query.Pred != "" && !check(p.Query) {
		return false
	}
	for _, f := range facts {
		if !check(f) {
			return false
		}
	}
	return true
}

// FuzzEval feeds arbitrary program sources to the engine and cross-checks
// it: a run with the reference storage mirrored in must reproduce the plain
// run bit-for-bit (full Stats, relation insertion order), and the naive
// oracle must agree on the fixpoint whenever it completes within the same
// limits. The checked-in corpus under testdata/fuzz seeds
// the fuzzer with the paper-shaped programs from cmd/existdlog/testdata.
func FuzzEval(f *testing.F) {
	f.Add("a(X,Y) :- p(X,Y).\na(X,Y) :- p(X,Z), a(Z,Y).\np(1,2). p(2,3).\n?- a(1,X).\n")
	f.Add("act(X) :- task(X), not done(X).\ntask(t1). task(t2). done(t2).\n?- act(X).\n")
	f.Add("d(Y,J) :- succ(I,J), d(X,I), e(X,Y).\nd(Y,1) :- e(0,Y).\ne(0,1). e(1,2).\n?- d(X,I).\n")
	f.Fuzz(func(t *testing.T, src string) {
		if len(src) > 4096 {
			t.Skip("oversized input")
		}
		parsed, err := parser.Parse(src)
		if err != nil {
			t.Skip("unparsable")
		}
		p := parsed.Program
		if len(p.Rules) > 24 {
			t.Skip("oversized program")
		}
		if _, err := Stratify(p); err != nil {
			t.Skip("unstratifiable")
		}
		if !arityConsistent(p, parsed.Facts) {
			t.Skip("inconsistent arities")
		}
		db := NewDatabase()
		if err := db.AddAtoms(parsed.Facts); err != nil {
			t.Skip("bad facts")
		}
		opt := Options{MaxIterations: 300, MaxFacts: 5000}
		sn, err := Eval(p, db, opt)
		if err != nil {
			return
		}
		// One more run with the map-of-strings reference storage mirrored
		// into every relation (refcheck.go panics on the first
		// per-operation divergence; ierr.Rescue surfaces it as an error,
		// which fails the run). The mirror must not perturb results: Stats
		// and insertion order stay bit-identical.
		func() {
			refCheckEnabled = true
			defer func() { refCheckEnabled = false }()
			chk, chkErr := Eval(p, db, opt)
			if chkErr != nil {
				t.Fatalf("refcheck run failed: %v\n%s", chkErr, src)
			}
			if chk.Stats != sn.Stats {
				t.Fatalf("refcheck stats diverge\nmirror: %+v\nplain:  %+v\n%s", chk.Stats, sn.Stats, src)
			}
			for key := range p.Derived {
				if fmt.Sprint(orderedFacts(sn, key)) != fmt.Sprint(orderedFacts(chk, key)) {
					t.Fatalf("refcheck %s insertion order diverges\n%s", key, src)
				}
			}
		}()
		nv, nvErr := evalNaive(context.Background(), p, db, opt)
		if nvErr != nil {
			return // e.g. naive hits the iteration budget differently
		}
		for key := range p.Derived {
			if fmt.Sprint(sn.DB.Facts(key)) != fmt.Sprint(nv.DB.Facts(key)) {
				t.Fatalf("%s fixpoint diverges from naive\n%s", key, src)
			}
		}
	})
}
