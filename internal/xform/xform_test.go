package xform

import (
	"fmt"
	"strings"
	"testing"

	"existdlog/internal/adorn"
	"existdlog/internal/ast"
	"existdlog/internal/engine"
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

func mustAdorn(t *testing.T, src string) *ast.Program {
	t.Helper()
	p, err := adorn.Adorn(mustParse(t, src))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

// Example 2 of the paper: the rule splits into a head component plus two
// boolean subqueries.
func TestSplitComponentsExample2(t *testing.T) {
	p := mustAdorn(t, `
p(X,U) :- q1(X,Y), q2(Y,Z), q3(U,V), q4(V), q5(W).
q4(X) :- q6(X).
?- p(X,_).
`)
	sp, err := SplitComponents(p)
	if err != nil {
		t.Fatal(err)
	}
	var main *ast.Rule
	boolRules := 0
	for i := range sp.Rules {
		switch {
		case sp.Rules[i].Head.Pred == "p":
			main = &sp.Rules[i]
		case sp.Rules[i].Head.Arity() == 0:
			boolRules++
		}
	}
	if main == nil {
		t.Fatalf("no rule for p:\n%s", sp)
	}
	// p@nd(X,_) :- q1(X,Y), q2(Y,_), B2, B3.
	if len(main.Body) != 4 {
		t.Fatalf("main rule = %s", main)
	}
	if !main.Head.Args[1].IsAnon() {
		t.Errorf("severed existential head argument should be anonymous: %s", main)
	}
	if boolRules != 2 {
		t.Errorf("expected 2 boolean rules, got %d:\n%s", boolRules, sp)
	}
	// The component {q3,q4} must stay together in one boolean rule.
	okQ34 := false
	for _, r := range sp.Rules {
		if r.Head.Arity() == 0 && len(r.Body) == 2 &&
			r.Body[0].Pred == "q3" && r.Body[1].Pred == "q4" {
			okQ34 = true
		}
	}
	if !okQ34 {
		t.Errorf("q3,q4 component not split as a unit:\n%s", sp)
	}
	// Lemma 3.1: every rule in the result has a single component.
	for _, rep := range CountComponents(sp) {
		if rep.Components != 1 {
			t.Errorf("rule %q has %d components after split", rep.Rule, rep.Components)
		}
	}
}

// Example 2's rule asked with both head arguments needed: the head's two
// components both stay (their join is the answer), and only the one that
// reaches no head variable becomes a boolean.
func TestSplitComponentsHeadSpansTwoComponents(t *testing.T) {
	p := mustAdorn(t, `
p(X,U) :- q1(X,Y), q2(Y,Z), q3(U,V), q4(V), q5(W).
q4(X) :- q6(X).
?- p(X,U).
`)
	sp, err := SplitComponents(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range sp.Rules {
		if r.Head.Pred != "p" {
			continue
		}
		// p@nn(X,U) :- q1(X,Y), q2(Y,Z), q3(U,V), q4@n(V), b1.
		if len(r.Body) != 5 || r.Body[4].Arity() != 0 {
			t.Errorf("main rule = %s", r)
		}
		return
	}
	t.Fatalf("no rule for p:\n%s", sp)
}

func TestSplitComponentsNoChange(t *testing.T) {
	p := mustAdorn(t, `
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,_).
`)
	sp, err := SplitComponents(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(sp.Rules) != len(p.Rules) {
		t.Errorf("connected rules should be unchanged:\n%s", sp)
	}
}

// Query equivalence of the component split (Lemma 3.1), checked by
// evaluation.
func TestSplitComponentsPreservesAnswers(t *testing.T) {
	src := `
p(X,U) :- q1(X,Y), q2(Y,Z), q3(U,V), q4(V), q5(W).
q4(X) :- q6(X).
?- p(X,_).
`
	p := mustAdorn(t, src)
	sp, err := SplitComponents(p)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase()
	for i := 0; i < 6; i++ {
		db.Add("q1", fmt.Sprint(i), fmt.Sprint(i+1))
		db.Add("q2", fmt.Sprint(i+1), fmt.Sprint(i+2))
		db.Add("q3", fmt.Sprint(i), fmt.Sprint(i))
		db.Add("q6", fmt.Sprint(i))
	}
	db.Add("q5", "w")
	before, err := engine.Eval(p, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := engine.Eval(sp, db, engine.Options{BooleanCut: true})
	if err != nil {
		t.Fatal(err)
	}
	goal := ast.NewAdorned("p", "nd", ast.V("X"), ast.V("_"))
	// Compare the needed (first) column only: the split anonymizes the
	// existential column.
	project := func(rows [][]string) map[string]bool {
		out := map[string]bool{}
		for _, r := range rows {
			out[r[0]] = true
		}
		return out
	}
	a, b := project(before.Answers(goal)), project(after.Answers(goal))
	if len(a) != len(b) {
		t.Fatalf("answer sets differ: %v vs %v", a, b)
	}
	for k := range a {
		if !b[k] {
			t.Errorf("missing answer %s after split", k)
		}
	}
	if after.Stats.RulesRetired == 0 {
		t.Error("boolean cut should retire rules on this workload")
	}
}

// Examples 1/3 of the paper: pushing the projection makes transitive
// closure unary.
func TestPushProjectionsExample1(t *testing.T) {
	p := mustAdorn(t, `
query(X) :- a(X,Y).
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- query(X).
`)
	pp, err := PushProjections(p)
	if err != nil {
		t.Fatal(err)
	}
	got := pp.String()
	want := `query@n(X) :- a@nd(X).
a@nd(X) :- p(X,Z), a@nd(Z).
a@nd(X) :- p(X,Y).
?- query@n(X).
`
	if got != want {
		t.Errorf("projected program:\n%swant:\n%s", got, want)
	}
}

func TestPushProjectionsPreservesAnswers(t *testing.T) {
	src := `
query(X) :- a(X,Y).
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- query(X).
`
	p := mustAdorn(t, src)
	pp, err := PushProjections(p)
	if err != nil {
		t.Fatal(err)
	}
	db := engine.NewDatabase()
	for i := 0; i < 15; i++ {
		db.Add("p", fmt.Sprint(i), fmt.Sprint(i+1))
		db.Add("p", fmt.Sprint(i), fmt.Sprint((i*3)%16))
	}
	r1, err := engine.Eval(p, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := engine.Eval(pp, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	g1 := ast.NewAdorned("query", "n", ast.V("X"))
	a1, a2 := r1.Answers(g1), r2.Answers(g1)
	if fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Errorf("answers differ:\n%v\n%v", a1, a2)
	}
	// The whole point: fewer facts derived.
	if r2.Stats.FactsDerived >= r1.Stats.FactsDerived {
		t.Errorf("projection should derive fewer facts: %d vs %d",
			r2.Stats.FactsDerived, r1.Stats.FactsDerived)
	}
}

func TestPushProjectionsIdempotent(t *testing.T) {
	p := mustAdorn(t, `
query(X) :- a(X,Y).
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- query(X).
`)
	pp, err := PushProjections(p)
	if err != nil {
		t.Fatal(err)
	}
	pp2, err := PushProjections(pp)
	if err != nil {
		t.Fatal(err)
	}
	if pp.String() != pp2.String() {
		t.Errorf("projection not idempotent:\n%s\nvs\n%s", pp, pp2)
	}
}

func TestPushProjectionsRejectsSharedDroppedVariable(t *testing.T) {
	// Hand-written (incorrectly) adorned program: Y is marked d on the
	// body occurrence but is used in a kept position of q.
	p := parser.MustParseProgram(`
a@nd(X,Y) :- p(X,Y).
top@n(X) :- a@nd(X,Y), q(Y).
?- top@n(X).
`)
	if _, err := PushProjections(p); err == nil ||
		!strings.Contains(err.Error(), "kept position") {
		t.Errorf("expected shared-variable rejection, got %v", err)
	}
}

func TestAddCoveringUnitRules(t *testing.T) {
	// Example 5/6 shape after projection: a@nd (unary) and a@nn (binary).
	p := mustAdorn(t, `
a(X,Y) :- a(X,Z), p(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,_).
`)
	pp, err := PushProjections(p)
	if err != nil {
		t.Fatal(err)
	}
	ext, added := AddCoveringUnitRules(pp)
	if len(added) != 1 {
		t.Fatalf("expected 1 unit rule, got %d:\n%s", len(added), ext)
	}
	r := ext.Rules[added[0]]
	if r.String() != "a@nd(U1) :- a@nn(U1,U2)." {
		t.Errorf("unit rule = %s", r)
	}
	// Adding again is a no-op.
	_, again := AddCoveringUnitRules(ext)
	if len(again) != 0 {
		t.Errorf("unit rule added twice")
	}
}

func TestAddCoveringUnitRulesUnprojected(t *testing.T) {
	p := mustAdorn(t, `
a(X,Y) :- a(X,Z), p(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,_).
`)
	ext, added := AddCoveringUnitRules(p)
	if len(added) != 1 {
		t.Fatalf("expected 1 unit rule:\n%s", ext)
	}
	if got := ext.Rules[added[0]].String(); got != "a@nd(U1,U2) :- a@nn(U1,U2)." {
		t.Errorf("unit rule = %s", got)
	}
}

// Example 12 of the paper: the invariant existential argument Z of the
// ternary recursion is projected out; the check c(Z) moves into the exit
// rule; the use site gains an unfolded check-free variant.
func TestReduceInvariantArgumentExample12(t *testing.T) {
	src := `
query(X,Y) :- p(X,Y,Z).
p(X,Y,Z) :- up(X,X1), p(X1,Y1,Z), dn(Y1,Y), c(Z).
p(X,Y,Z) :- b(X,Y,Z).
?- query(X,Y).
`
	ad := mustAdorn(t, src)
	reds := FindInvariantReductions(ad)
	if len(reds) != 1 || reds[0].Base != "p" || reds[0].Pos != 2 {
		t.Fatalf("FindInvariantReductions = %+v\n%s", reds, ad)
	}
	tr, err := ReduceInvariantArgument(ad, "p", 2)
	if err != nil {
		t.Fatal(err)
	}
	// The recursive predicate is now binary.
	for _, r := range tr.Rules {
		if strings.HasPrefix(r.Head.Pred, "p_r") && r.Head.Arity() != 2 {
			t.Errorf("reduced predicate not binary: %s", r)
		}
	}
	// Equivalence on data where the check matters.
	db := engine.NewDatabase()
	depth := 6
	for i := 0; i < depth; i++ {
		db.Add("up", fmt.Sprint(i), fmt.Sprint(i+1))
		db.Add("dn", fmt.Sprint(i+1), fmt.Sprint(i))
	}
	db.Add("b", fmt.Sprint(depth), fmt.Sprint(depth), "ok")
	db.Add("b", fmt.Sprint(depth), fmt.Sprint(depth), "bad")
	db.Add("b", "lone", "lone", "bad") // reachable only via the base case
	db.Add("c", "ok")
	r1, err := engine.Eval(ad, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r2, err := engine.Eval(tr, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	goal := ast.NewAdorned("query", "nn", ast.V("X"), ast.V("Y"))
	a1, a2 := r1.Answers(goal), r2.Answers(goal)
	if fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Errorf("answers differ:\noriginal:    %v\ntransformed: %v\nprogram:\n%s", a1, a2, tr)
	}
	// "lone" must be answered by both (base case needs no check).
	found := false
	for _, row := range a2 {
		if row[0] == "lone" {
			found = true
		}
	}
	if !found {
		t.Errorf("check-free base case lost: %v", a2)
	}
}

func TestReduceInvariantArgumentRejections(t *testing.T) {
	// Position is consumed by a derived literal: not a check.
	ad := mustAdorn(t, `
query(X,Y) :- p(X,Y,Z).
p(X,Y,Z) :- up(X,X1), p(X1,Y1,Z), dn(Y1,Y), d(Z).
p(X,Y,Z) :- b(X,Y,Z).
d(Z) :- c(Z).
?- query(X,Y).
`)
	if _, err := ReduceInvariantArgument(ad, "p", 2); err == nil {
		t.Error("derived check literal should be rejected")
	}
	// Position not invariant (shifted through recursion).
	ad2 := mustAdorn(t, `
query(X,Y) :- p(X,Y,Z).
p(X,Y,Z) :- up(X,X1), p(X1,Y1,W), g(W,Z), dn(Y1,Y), c(Z).
p(X,Y,Z) :- b(X,Y,Z).
?- query(X,Y).
`)
	if _, err := ReduceInvariantArgument(ad2, "p", 2); err == nil {
		t.Error("non-invariant position should be rejected")
	}
	// Needed at the use site.
	ad3 := mustAdorn(t, `
query(X,Y) :- p(X,Y,Z), out(Z,Y).
p(X,Y,Z) :- up(X,X1), p(X1,Y1,Z), dn(Y1,Y), c(Z).
p(X,Y,Z) :- b(X,Y,Z).
?- query(X,Y).
`)
	if _, err := ReduceInvariantArgument(ad3, "p", 2); err == nil {
		t.Error("needed use site should be rejected")
	}
}

// Regression: projection must preserve negation on adorned literals
// ("not shielded@n(S)" must not silently become "shielded@n(S)").
func TestPushProjectionsPreservesNegation(t *testing.T) {
	p := mustAdorn(t, `
exposed(S) :- reachable(S), not shielded(S).
reachable(S) :- ingress(S).
reachable(S) :- reachable(R), link(R,S).
shielded(S) :- firewall(F,S).
?- exposed(S).
`)
	pp, err := PushProjections(p)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range pp.Rules {
		for _, b := range r.Body {
			if b.Pred == "shielded" && b.Negated {
				found = true
			}
		}
	}
	if !found {
		t.Fatalf("negation lost:\n%s", pp)
	}
	db := engine.NewDatabase()
	db.Add("link", "n0", "n1")
	db.Add("link", "n1", "n2")
	db.Add("ingress", "n0")
	db.Add("firewall", "fw", "n0")
	before, err := engine.Eval(p, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := engine.Eval(pp, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	a := before.Answers(p.Query)
	b := after.Answers(pp.Query)
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("answers differ: %v vs %v", a, b)
	}
}

// A ground negated literal in a disconnected component becomes a boolean
// guard ("proceed only while no alarm exists").
func TestSplitComponentsSeversNegatedGuard(t *testing.T) {
	p := mustAdorn(t, `
act(X) :- task(X), not alarm(_).
?- act(X).
`)
	sp, err := SplitComponents(p)
	if err != nil {
		t.Fatal(err)
	}
	var boolRule *ast.Rule
	for i := range sp.Rules {
		if sp.Rules[i].Head.Arity() == 0 {
			boolRule = &sp.Rules[i]
		}
	}
	if boolRule == nil || !boolRule.Body[0].Negated {
		t.Fatalf("negated guard not severed:\n%s", sp)
	}
	db := engine.NewDatabase()
	db.Add("task", "t1")
	before, err := engine.Eval(p, db, engine.Options{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := engine.Eval(sp, db, engine.Options{BooleanCut: true})
	if err != nil {
		t.Fatal(err)
	}
	if before.AnswerCount(p.Query) != 1 || after.AnswerCount(sp.Query) != 1 {
		t.Errorf("answers: %d vs %d", before.AnswerCount(p.Query), after.AnswerCount(sp.Query))
	}
	// With an alarm present, both say no.
	db.Add("alarm", "a1")
	before2, _ := engine.Eval(p, db, engine.Options{})
	after2, err := engine.Eval(sp, db, engine.Options{BooleanCut: true})
	if err != nil {
		t.Fatal(err)
	}
	if before2.AnswerCount(p.Query) != 0 || after2.AnswerCount(sp.Query) != 0 {
		t.Errorf("alarm case: %d vs %d", before2.AnswerCount(p.Query), after2.AnswerCount(sp.Query))
	}
}
