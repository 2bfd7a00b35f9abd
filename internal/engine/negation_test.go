package engine

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"

	"existdlog/internal/parser"
)

func TestStratifyBasics(t *testing.T) {
	p := mustParse(t, `
reach(X) :- source(X).
reach(Y) :- reach(X), e(X,Y).
unreachable(X) :- node(X), not reach(X).
?- unreachable(X).
`)
	strata, err := Stratify(p)
	if err != nil {
		t.Fatal(err)
	}
	if strata["reach"] != 0 || strata["unreachable"] != 1 {
		t.Errorf("strata = %v", strata)
	}
}

func TestStratifyRejectsNegativeCycle(t *testing.T) {
	p := mustParse(t, `
win(X) :- move(X,Y), not win2(Y).
win2(X) :- win(X).
win(X) :- base(X).
win2(X) :- base(X).
?- win(X).
`)
	if _, err := Stratify(p); err == nil {
		t.Error("negation through recursion must be rejected")
	}
	if _, err := Eval(p, NewDatabase(), Options{}); err == nil {
		t.Error("Eval must reject unstratifiable programs")
	}
}

// The classic set-difference / unreachable-nodes query.
func TestNegationUnreachable(t *testing.T) {
	p := mustParse(t, `
reach(X) :- source(X).
reach(Y) :- reach(X), e(X,Y).
unreachable(X) :- node(X), not reach(X).
?- unreachable(X).
`)
	db := NewDatabase()
	for i := 0; i < 10; i++ {
		db.Add("node", fmt.Sprint(i))
	}
	for i := 0; i < 4; i++ {
		db.Add("e", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	db.Add("source", "0")
	res, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	got := res.DB.Facts("unreachable")
	if len(got) != 5 { // nodes 5..9
		t.Fatalf("unreachable = %v", got)
	}
	for _, row := range got {
		var n int
		fmt.Sscan(row[0], &n)
		if n < 5 {
			t.Errorf("node %d is reachable", n)
		}
	}
}

// Negated literal written FIRST in the body: the engine must defer it
// until its variables are bound.
func TestNegationLiteralOrderIndependent(t *testing.T) {
	p1 := mustParse(t, `
only(X) :- a(X), not b(X).
?- only(X).
`)
	p2 := mustParse(t, `
only(X) :- not b(X), a(X).
?- only(X).
`)
	db := NewDatabase()
	db.Add("a", "1")
	db.Add("a", "2")
	db.Add("b", "2")
	r1, err := Eval(p1, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Eval(p2, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(r1.DB.Facts("only")) != fmt.Sprint(r2.DB.Facts("only")) {
		t.Errorf("literal order changed negation results: %v vs %v",
			r1.DB.Facts("only"), r2.DB.Facts("only"))
	}
	if got := r1.DB.Facts("only"); len(got) != 1 || got[0][0] != "1" {
		t.Errorf("only = %v", got)
	}
}

// Negation with a wildcard: not p(X,_) means "no p-tuple starts with X".
func TestNegationWildcard(t *testing.T) {
	p := mustParse(t, `
leaf(X) :- node(X), not e(X,_).
?- leaf(X).
`)
	db := NewDatabase()
	db.Add("node", "a")
	db.Add("node", "b")
	db.Add("node", "c")
	db.Add("e", "a", "b")
	db.Add("e", "b", "c")
	res, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.DB.Facts("leaf"); len(got) != 1 || got[0][0] != "c" {
		t.Errorf("leaf = %v", got)
	}
}

// Three strata: derived, its complement, and a predicate over the
// complement.
func TestNegationThreeStrata(t *testing.T) {
	p := mustParse(t, `
r(X,Y) :- e(X,Y).
r(X,Y) :- r(X,Z), e(Z,Y).
nr(X,Y) :- node(X), node(Y), not r(X,Y).
island(X) :- node(X), not hasout(X).
hasout(X) :- node(X), nr(X,Y), neq(X,Y).
?- island(X).
`)
	db := NewDatabase()
	for _, n := range []string{"a", "b", "c"} {
		db.Add("node", n)
	}
	db.Add("e", "a", "b")
	// a reaches b; islands under this contrived definition: nodes with no
	// non-reachable distinct partner. From a: nr(a,c),nr(a,a) -> hasout.
	res, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	strata, _ := Stratify(p)
	if strata["island"] <= strata["nr"] || strata["nr"] <= strata["r"] {
		t.Errorf("strata ordering wrong: %v", strata)
	}
	_ = res
}

// The engine and the naive oracle must agree under stratified negation.
func TestNegationNaiveSemiNaiveAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	src := `
r(X,Y) :- e(X,Y).
r(X,Y) :- r(X,Z), e(Z,Y).
nr(X,Y) :- n(X), n(Y), not r(X,Y).
top(X) :- n(X), not nr(X,X).
?- top(X).
`
	p := mustParse(t, src)
	for trial := 0; trial < 15; trial++ {
		db := NewDatabase()
		n := 3 + rng.Intn(4)
		for i := 0; i < n; i++ {
			db.Add("n", fmt.Sprint(i))
		}
		for i := 0; i < 2*n; i++ {
			db.Add("e", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
		}
		sn, err := Eval(p, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		nv, err := evalNaive(context.Background(), p, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, pred := range []string{"r", "nr", "top"} {
			if fmt.Sprint(sn.DB.Facts(pred)) != fmt.Sprint(nv.DB.Facts(pred)) {
				t.Fatalf("trial %d: %s differs", trial, pred)
			}
		}
	}
}

// The planner and the boolean cut stay sound under negation.
func TestNegationWithReorderAndCut(t *testing.T) {
	p := mustParse(t, `
ok :- conf(C), not broken(C).
alert(X) :- sensor(X), ok.
broken(C) :- fault(C).
?- alert(X).
`)
	db := NewDatabase()
	db.Add("conf", "c1")
	db.Add("conf", "c2")
	db.Add("fault", "c1")
	db.Add("sensor", "s1")
	for _, opts := range []Options{
		{},
		{BooleanCut: true},
	} {
		res, err := Eval(p, db, opts)
		if err != nil {
			t.Fatal(err)
		}
		if res.DB.Count("alert") != 1 {
			t.Errorf("opts %+v: alert = %v", opts, res.DB.Facts("alert"))
		}
	}
}

func TestParseNegation(t *testing.T) {
	p := mustParse(t, `
a(X) :- b(X), not c(X).
?- a(X).
`)
	if !p.Rules[0].Body[1].Negated {
		t.Error("negation not parsed")
	}
	if p.Rules[0].String() != "a(X) :- b(X), not c(X)." {
		t.Errorf("String = %q", p.Rules[0].String())
	}
	// A predicate actually NAMED not still works with parentheses.
	p2 := mustParse(t, `
a(X) :- not(X).
?- a(X).
`)
	if p2.Rules[0].Body[0].Pred != "not" || p2.Rules[0].Body[0].Negated {
		t.Errorf("not/1 predicate mishandled: %s", p2.Rules[0])
	}
	// Unsafe negation rejected.
	if _, err := parser.ParseProgram(`a(X) :- b(X), not c(Y).
?- a(X).`); err == nil || !strings.Contains(err.Error(), "negated literal") {
		t.Errorf("unsafe negation should be rejected, got %v", err)
	}
}
