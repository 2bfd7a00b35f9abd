package engine

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"existdlog/internal/ast"
	"existdlog/internal/parser"
)

func mustParse(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := parser.ParseProgram(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func chainDB(n int) *Database {
	db := NewDatabase()
	for i := 0; i < n; i++ {
		db.Add("p", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	return db
}

const tcSrc = `
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
`

func TestTransitiveClosureChain(t *testing.T) {
	p := mustParse(t, tcSrc)
	db := chainDB(10)
	res, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Chain 0->1->...->10 has 11*10/2 = 55 closure pairs.
	if got := res.DB.Count("a"); got != 55 {
		t.Errorf("closure size = %d, want 55", got)
	}
	// Input database untouched.
	if db.Has("a") {
		t.Error("Eval mutated the input database")
	}
	// Spot-check an answer.
	ans := res.Answers(ast.NewAtom("a", ast.C("0"), ast.V("Y")))
	if len(ans) != 10 {
		t.Errorf("answers from 0: %d, want 10", len(ans))
	}
}

func TestNaiveMatchesSemiNaive(t *testing.T) {
	p := mustParse(t, tcSrc)
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 25; trial++ {
		db := NewDatabase()
		n := 3 + rng.Intn(10)
		edges := 1 + rng.Intn(3*n)
		for i := 0; i < edges; i++ {
			db.Add("p", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
		}
		sn, err := Eval(p, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		nv, err := evalNaive(context.Background(), p, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		a, b := sn.DB.Facts("a"), nv.DB.Facts("a")
		if len(a) != len(b) {
			t.Fatalf("trial %d: semi-naive %d facts, naive %d", trial, len(a), len(b))
		}
		for i := range a {
			if fmt.Sprint(a[i]) != fmt.Sprint(b[i]) {
				t.Fatalf("trial %d: fact %d differs: %v vs %v", trial, i, a[i], b[i])
			}
		}
	}
}

func TestSemiNaiveFewerDerivations(t *testing.T) {
	p := mustParse(t, tcSrc)
	db := chainDB(40)
	sn, _ := Eval(p, db, Options{})
	nv, _ := evalNaive(context.Background(), p, db, Options{})
	if sn.Stats.Derivations >= nv.Stats.Derivations {
		t.Errorf("semi-naive should derive fewer tuples: %d vs %d",
			sn.Stats.Derivations, nv.Stats.Derivations)
	}
	if sn.Stats.FactsDerived != nv.Stats.FactsDerived {
		t.Errorf("fact counts differ: %d vs %d", sn.Stats.FactsDerived, nv.Stats.FactsDerived)
	}
}

func TestSelfJoinAndConstants(t *testing.T) {
	p := mustParse(t, `
sib(X,Y) :- par(Z,X), par(Z,Y), neq(X,Y).
?- sib(X,Y).
`)
	db := NewDatabase()
	db.Add("par", "p1", "c1")
	db.Add("par", "p1", "c2")
	db.Add("par", "p2", "c3")
	res, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	facts := res.DB.Facts("sib")
	if len(facts) != 2 {
		t.Fatalf("sib = %v", facts)
	}
}

func TestRepeatedVariableInLiteral(t *testing.T) {
	p := mustParse(t, `
loop(X) :- e(X,X).
?- loop(X).
`)
	db := NewDatabase()
	db.Add("e", "a", "a")
	db.Add("e", "a", "b")
	db.Add("e", "c", "c")
	res, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.DB.Count("loop"); got != 2 {
		t.Errorf("loop count = %d, want 2", got)
	}
}

func TestConstantInRule(t *testing.T) {
	p := mustParse(t, `
r(Y) :- e(1, Y).
?- r(Y).
`)
	db := NewDatabase()
	db.Add("e", "1", "a")
	db.Add("e", "2", "b")
	res, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.DB.Facts("r"); len(got) != 1 || got[0][0] != "a" {
		t.Errorf("r = %v", got)
	}
}

func TestBooleanCutRetiresRules(t *testing.T) {
	// Example 2 shape: once b2 holds, its rule (and the rule for the
	// predicate only it uses) retire.
	src := `
p(X) :- q1(X,Y), b2.
b2 :- q3(U,V), q4(V).
q4(X) :- q6(X).
?- p(X).
`
	p := mustParse(t, src)
	db := NewDatabase()
	for i := 0; i < 20; i++ {
		db.Add("q1", fmt.Sprint(i), fmt.Sprint(i+1))
		db.Add("q3", fmt.Sprint(i), fmt.Sprint(i))
		db.Add("q6", fmt.Sprint(i))
	}
	on, err := Eval(p, db, Options{BooleanCut: true})
	if err != nil {
		t.Fatal(err)
	}
	off, err := Eval(p, db, Options{BooleanCut: false})
	if err != nil {
		t.Fatal(err)
	}
	if on.Stats.RulesRetired == 0 {
		t.Error("expected rules to retire with BooleanCut")
	}
	if got, want := on.DB.Count("p"), off.DB.Count("p"); got != want {
		t.Errorf("query answers differ under cut: %d vs %d", got, want)
	}
	if on.DB.Count("b2") != 1 {
		t.Errorf("b2 = %d", on.DB.Count("b2"))
	}
}

func TestBooleanCutFalseBooleanStaysFalse(t *testing.T) {
	p := mustParse(t, `
p(X) :- q1(X,Y), b2.
b2 :- q3(U,V).
?- p(X).
`)
	db := NewDatabase()
	db.Add("q1", "a", "b")
	res, err := Eval(p, db, Options{BooleanCut: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.DB.Count("p") != 0 || res.DB.Count("b2") != 0 {
		t.Errorf("p=%d b2=%d, want 0/0", res.DB.Count("p"), res.DB.Count("b2"))
	}
}

func TestDerivedSeedsHonored(t *testing.T) {
	// Uniform-equivalence inputs place facts in derived predicates.
	p := mustParse(t, `
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
`)
	db := NewDatabase()
	db.Add("p", "x", "z")
	db.Add("a", "z", "w") // seed for the derived predicate
	res, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.DB.Relation("a", 2).Contains(Tuple{
		res.DB.Syms.ids["x"], res.DB.Syms.ids["w"]}) {
		t.Errorf("a should contain (x,w) via the seed; facts: %v", res.DB.Facts("a"))
	}
}

func TestAnonymousHeadVariable(t *testing.T) {
	// Heads with anonymous variables (component-split output) evaluate to
	// the reserved constant.
	p := mustParse(t, `
p(X,_) :- q1(X,Y).
?- p(X,Y).
`)
	db := NewDatabase()
	db.Add("q1", "a", "b")
	res, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	facts := res.DB.Facts("p")
	if len(facts) != 1 || facts[0][1] != "_" {
		t.Errorf("p = %v", facts)
	}
}

func TestSuccBuiltinCounting(t *testing.T) {
	p := mustParse(t, `
dist(Y, J) :- dist(X, I), e(X,Y), succ(I,J).
dist(Y, 1) :- e(0, Y).
?- dist(X,I).
`)
	db := NewDatabase()
	for i := 0; i < 5; i++ {
		db.Add("e", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	res, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	facts := res.DB.Facts("dist")
	if len(facts) != 5 {
		t.Fatalf("dist = %v", facts)
	}
	if facts[4][0] != "5" || facts[4][1] != "5" {
		t.Errorf("dist[4] = %v", facts[4])
	}
}

func TestFactLimit(t *testing.T) {
	// succ over a cyclic graph diverges; the guard must trip.
	p := mustParse(t, `
dist(Y, J) :- dist(X, I), e(X,Y), succ(I,J).
dist(Y, 1) :- e(0, Y).
?- dist(X,I).
`)
	db := NewDatabase()
	db.Add("e", "0", "1")
	db.Add("e", "1", "0")
	_, err := Eval(p, db, Options{MaxFacts: 100})
	if err != ErrFactLimit {
		t.Errorf("err = %v, want ErrFactLimit", err)
	}
}

func TestIterationLimit(t *testing.T) {
	p := mustParse(t, tcSrc)
	db := chainDB(50)
	_, err := Eval(p, db, Options{MaxIterations: 3})
	if err != ErrIterationLimit {
		t.Errorf("err = %v, want ErrIterationLimit", err)
	}
}

func TestProvenanceTree(t *testing.T) {
	p := mustParse(t, tcSrc)
	db := chainDB(4)
	res, err := Eval(p, db, Options{TrackProvenance: true})
	if err != nil {
		t.Fatal(err)
	}
	tree, ok := res.Derivation("a", []string{"0", "4"})
	if !ok {
		t.Fatal("no derivation for a(0,4)")
	}
	if tree.Rule < 0 {
		t.Error("derived fact should cite a rule")
	}
	if tree.Height() < 2 {
		t.Errorf("tree height = %d", tree.Height())
	}
	// Leaves must be base facts.
	var walk func(n *Tree)
	var leaves int
	walk = func(n *Tree) {
		if len(n.Children) == 0 {
			leaves++
			if n.Rule != -1 {
				t.Errorf("leaf %v cites rule %d", n.Fact, n.Rule)
			}
			if n.Fact.Key != "p" {
				t.Errorf("leaf %v is not a base fact", n.Fact)
			}
		}
		for _, c := range n.Children {
			walk(c)
		}
	}
	walk(tree)
	if leaves != 4 {
		t.Errorf("a(0,4) over a chain needs 4 base edges, got %d leaves", leaves)
	}
}

func TestEmptyProgramAndEmptyEDB(t *testing.T) {
	p := mustParse(t, tcSrc)
	res, err := Eval(p, NewDatabase(), Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.DB.Count("a") != 0 {
		t.Error("empty EDB should yield empty closure")
	}
	if !res.DB.Has("a") {
		t.Error("derived relation should exist even when empty")
	}
}

func TestCyclicGraphClosure(t *testing.T) {
	p := mustParse(t, tcSrc)
	db := NewDatabase()
	n := 7
	for i := 0; i < n; i++ {
		db.Add("p", fmt.Sprint(i), fmt.Sprint((i+1)%n))
	}
	res, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.DB.Count("a"); got != n*n {
		t.Errorf("cycle closure = %d, want %d", got, n*n)
	}
}

func TestStatsDuplicates(t *testing.T) {
	p := mustParse(t, tcSrc)
	db := NewDatabase()
	// Diamond: duplicates guaranteed (two paths 0->3).
	db.Add("p", "0", "1")
	db.Add("p", "0", "2")
	db.Add("p", "1", "3")
	db.Add("p", "2", "3")
	res, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.DuplicateHits == 0 {
		t.Error("diamond should produce duplicate derivations")
	}
	if res.Stats.Derivations != int64(res.Stats.FactsDerived)+res.Stats.DuplicateHits {
		t.Errorf("derivations %d != facts %d + dups %d",
			res.Stats.Derivations, res.Stats.FactsDerived, res.Stats.DuplicateHits)
	}
}
