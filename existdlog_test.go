package existdlog

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"testing"
)

// The full pipeline on Example 1 of the paper: adornment turns the binary
// closure unary (Example 3) and Sagiv's test removes the recursion
// (Example 4).
func TestOptimizeExample1EndToEnd(t *testing.T) {
	src := `
query(X) :- a(X,Y).
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- query(X).
`
	prog, _, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := res.Program.String()
	want := `query@n(X) :- a@nd(X).
a@nd(X) :- p(X,Y).
?- query@n(X).
`
	if got != want {
		t.Fatalf("optimized:\n%s\nwant:\n%s\nsteps: %+v", got, want, res.Steps)
	}
	if res.EmptyAnswer {
		t.Error("answer is not empty")
	}
	// Equivalence + the performance claim, on a random graph.
	db := NewDatabase()
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 200; i++ {
		db.Add("p", fmt.Sprint(rng.Intn(60)), fmt.Sprint(rng.Intn(60)))
	}
	before, err := Eval(prog, db, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := Eval(res.Program, db, EvalOptions{BooleanCut: true})
	if err != nil {
		t.Fatal(err)
	}
	a1 := before.Answers(prog.Query)
	a2 := after.Answers(res.Program.Query)
	if fmt.Sprint(a1) != fmt.Sprint(a2) {
		t.Fatalf("answers differ: %v vs %v", a1, a2)
	}
	if after.Stats.FactsDerived >= before.Stats.FactsDerived {
		t.Errorf("optimized program should derive fewer facts: %d vs %d",
			after.Stats.FactsDerived, before.Stats.FactsDerived)
	}
	if after.Stats.DuplicateHits >= before.Stats.DuplicateHits {
		t.Errorf("optimized program should hit fewer duplicates: %d vs %d",
			after.Stats.DuplicateHits, before.Stats.DuplicateHits)
	}
}

// Example 2 end to end: components become booleans, and the optimized
// program with the runtime cut answers the same query.
func TestOptimizeExample2Components(t *testing.T) {
	src := `
p(X,U) :- q1(X,Y), q2(Y,Z), q3(U,V), q4(V), q5(W).
q4(X) :- q6(X).
?- p(X,_).
`
	prog, _, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Program.String(), "b1") {
		t.Errorf("expected boolean predicates:\n%s", res.Program)
	}
	db := NewDatabase()
	for i := 0; i < 30; i++ {
		db.Add("q1", fmt.Sprint(i), fmt.Sprint(i+1))
		db.Add("q2", fmt.Sprint(i+1), fmt.Sprint(i+2))
		db.Add("q3", fmt.Sprint(i), fmt.Sprint(i))
		db.Add("q6", fmt.Sprint(i))
	}
	db.Add("q5", "w")
	before, err := Eval(prog, db, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := Eval(res.Program, db, EvalOptions{BooleanCut: true})
	if err != nil {
		t.Fatal(err)
	}
	// Needed column comparison.
	count := func(rows [][]string) map[string]bool {
		s := map[string]bool{}
		for _, r := range rows {
			s[r[0]] = true
		}
		return s
	}
	b := count(before.Answers(prog.Query))
	a := count(after.Answers(res.Program.Query))
	if len(a) != len(b) {
		t.Fatalf("answers differ: %v vs %v", b, a)
	}
	if after.Stats.RulesRetired == 0 {
		t.Error("boolean cut should retire rules")
	}
}

// Example 8 end to end: the optimizer proves the answer empty.
func TestOptimizeEmptyAnswer(t *testing.T) {
	src := `
p(X) :- p1(X,Y).
p1(X,Y) :- p2(X,Z,U), g1(Z,U,Y).
p2(X,Z,U) :- p2(X,V,W), g2(V,W,Z,U).
?- p(X).
`
	prog, _, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !res.EmptyAnswer {
		t.Errorf("expected compile-time empty answer:\n%s", res.Program)
	}
}

// Magic sets compose with the pipeline when the query binds a constant.
func TestOptimizeWithMagic(t *testing.T) {
	src := `
query(Y) :- a(5,Y).
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- query(Y).
`
	prog, _, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.MagicSets = true
	res, err := Optimize(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	for i := 0; i < 50; i++ {
		db.Add("p", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	before, _ := Eval(prog, db, EvalOptions{})
	after, err := Eval(res.Program, db, EvalOptions{BooleanCut: true})
	if err != nil {
		t.Fatal(err)
	}
	if before.AnswerCount(prog.Query) != after.AnswerCount(res.Program.Query) {
		t.Fatalf("answers differ: %d vs %d\n%s",
			before.AnswerCount(prog.Query), after.AnswerCount(res.Program.Query), res.Program)
	}
	if after.Stats.FactsDerived >= before.Stats.FactsDerived {
		t.Errorf("magic composition should restrict computation: %d vs %d",
			after.Stats.FactsDerived, before.Stats.FactsDerived)
	}
}

// Example 12 through the pipeline: the invariant reduction fires.
func TestOptimizeExample12(t *testing.T) {
	src := `
query(X,Y) :- p(X,Y,Z).
p(X,Y,Z) :- up(X,X1), p(X1,Y1,Z), dn(Y1,Y), c(Z).
p(X,Y,Z) :- b(X,Y,Z).
?- query(X,Y).
`
	prog, _, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	fired := false
	for _, s := range res.Steps {
		if s.Name == "reduce-invariant" {
			fired = true
		}
	}
	if !fired {
		t.Fatalf("invariant reduction did not fire:\n%+v", res.Steps)
	}
	// The recursive predicate must now be binary.
	for _, r := range res.Program.Rules {
		if strings.HasPrefix(r.Head.Pred, "p_r") && len(r.Head.Args) != 2 {
			t.Errorf("reduced predicate not binary: %s", r)
		}
	}
}

// The zero Options value is a no-op pipeline.
func TestOptimizeNoop(t *testing.T) {
	prog := MustParseProgram(`
a(X,Y) :- p(X,Y).
?- a(X,_).
`)
	res, err := Optimize(prog, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Program.String() != prog.String() {
		t.Errorf("no-op pipeline changed the program:\n%s", res.Program)
	}
	if len(res.Steps) != 0 {
		t.Errorf("no steps expected, got %+v", res.Steps)
	}
}

func TestParseWithFacts(t *testing.T) {
	prog, db, err := Parse(`
a(X) :- e(X,Y).
e(1,2).
e(2,3).
?- a(X).
`)
	if err != nil {
		t.Fatal(err)
	}
	if db.Count("e") != 2 {
		t.Errorf("e count = %d", db.Count("e"))
	}
	res, err := Eval(prog, db, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := res.Answers(prog.Query); len(got) != 2 {
		t.Errorf("answers = %v", got)
	}
}

// Optimize must never lose or invent answers across a battery of random
// programs; this is the facade-level soundness fuzz.
func TestOptimizeSoundnessFuzz(t *testing.T) {
	shapes := []string{
		`query(X) :- a(X,Y).
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- query(X).`,
		`query(X) :- a(X,Y), c(W).
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- query(X).`,
		`a(X,Y) :- a(X,Z), p(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,_).`,
		`s(X) :- a(X,Y), b2(Y).
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
b2(Y) :- q(Y).
?- s(X).`,
	}
	rng := rand.New(rand.NewSource(2026))
	for si, src := range shapes {
		prog := MustParseProgram(src)
		res, err := Optimize(prog, DefaultOptions())
		if err != nil {
			t.Fatalf("shape %d: %v", si, err)
		}
		for trial := 0; trial < 10; trial++ {
			db := NewDatabase()
			n := 3 + rng.Intn(6)
			for i := 0; i < 2*n; i++ {
				db.Add("p", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
				db.Add("q", fmt.Sprint(rng.Intn(n)))
			}
			db.Add("c", "w")
			before, err := Eval(prog, db, EvalOptions{})
			if err != nil {
				t.Fatal(err)
			}
			after, err := Eval(res.Program, db, EvalOptions{BooleanCut: true})
			if err != nil {
				t.Fatal(err)
			}
			// Compare the needed column (the first, for these shapes) as a
			// set: sorted distinct values.
			proj := func(rows [][]string) string {
				s := map[string]bool{}
				for _, r := range rows {
					s[r[0]] = true
				}
				keys := make([]string, 0, len(s))
				for k := range s {
					keys = append(keys, k)
				}
				sort.Strings(keys)
				return strings.Join(keys, ",")
			}
			b := before.Answers(prog.Query)
			a := after.Answers(res.Program.Query)
			if proj(b) != proj(a) {
				t.Fatalf("shape %d trial %d: answers differ\nbefore %v\nafter %v\noptimized:\n%s",
					si, trial, b, a, res.Program)
			}
		}
	}
}

// Stratified negation (a Section 6 generalization direction) flows through
// the pipeline: the adornment and projection phases apply — a negated
// literal's anonymous positions are existential, so "not e(X,_)" tests an
// (projected) existence — while the positive-only deletion tests step
// aside automatically.
func TestOptimizeWithNegation(t *testing.T) {
	src := `
reach(Y) :- src(Y).
reach(Y) :- reach(X), e(X,Y).
dead(X) :- node(X), not reach(X).
report(X) :- dead(X), audit(W).
?- report(X).
`
	prog, _, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Optimize(prog, DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	db := NewDatabase()
	for i := 0; i < 12; i++ {
		db.Add("node", fmt.Sprint(i))
	}
	for i := 0; i < 5; i++ {
		db.Add("e", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	db.Add("src", "0")
	db.Add("audit", "q1")
	before, err := Eval(prog, db, EvalOptions{})
	if err != nil {
		t.Fatal(err)
	}
	after, err := Eval(res.Program, db, EvalOptions{BooleanCut: true})
	if err != nil {
		t.Fatal(err)
	}
	b := before.Answers(prog.Query)
	a := after.Answers(res.Program.Query)
	if len(a) != len(b) || len(a) != 6 { // nodes 6..11 unreachable
		t.Fatalf("answers: before %v, after %v", b, a)
	}
}

// Unstratifiable programs surface a clear error.
func TestEvalRejectsUnstratifiable(t *testing.T) {
	prog := MustParseProgram(`
p(X) :- q(X), not r(X).
r(X) :- q(X), not p(X).
?- p(X).
`)
	_, err := Eval(prog, NewDatabase(), EvalOptions{})
	if err == nil || !strings.Contains(err.Error(), "stratifiable") {
		t.Errorf("err = %v", err)
	}
}

// Concurrent evaluations of the same program over the same database must
// not interfere (each Eval clones; run under -race in CI).
func TestConcurrentEval(t *testing.T) {
	prog := MustParseProgram(`
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
`)
	db := NewDatabase()
	for i := 0; i < 64; i++ {
		db.Add("p", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	const workers = 8
	results := make(chan int, workers)
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		go func() {
			res, err := Eval(prog, db, EvalOptions{})
			if err != nil {
				errs <- err
				return
			}
			results <- res.DB.Count("a")
		}()
	}
	for w := 0; w < workers; w++ {
		select {
		case err := <-errs:
			t.Fatal(err)
		case n := <-results:
			if n != 64*65/2 {
				t.Errorf("worker got %d facts", n)
			}
		}
	}
}

// Supplementary magic through the pipeline option.
func TestOptimizeSupplementaryMagic(t *testing.T) {
	prog := MustParseProgram(`
sg(X,Y) :- up(X,U), sg(U,V), flat(V,W), sg(W,Z), dn(Z,Y).
sg(X,Y) :- flat(X,Y).
?- sg(a0, Y).
`)
	opts := Options{Adorn: true, SupplementaryMagic: true}
	res, err := Optimize(prog, opts)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(res.Program.String(), "sup_") {
		t.Errorf("expected supplementary predicates:\n%s", res.Program)
	}
}
