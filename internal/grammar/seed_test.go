package grammar

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"existdlog/internal/ast"
	"existdlog/internal/engine"
	"existdlog/internal/parser"
)

// randomLinearGrammar draws a chain grammar of the given linearity:
// 1–3 nonterminals s0..s2 (s0 starts), 1–3 terminals b0..b2, and per
// nonterminal 1–3 productions of 1–3 terminals, each optionally ending
// (RightLinear) or starting (LeftLinear) with a nonterminal. Acyclic
// grammars mention no nonterminal on a right-hand side. No production is
// a unit production, so SeedChainGoal must accept every draw.
func randomLinearGrammar(rng *rand.Rand, shape Linearity) *Grammar {
	g := &Grammar{Start: "s0", Productions: map[string][][]string{}, Terminals: map[string]bool{}}
	nts := 1 + rng.Intn(3)
	terms := 1 + rng.Intn(3)
	for t := 0; t < terms; t++ {
		g.Terminals[fmt.Sprintf("b%d", t)] = true
	}
	for n := 0; n < nts; n++ {
		nt := fmt.Sprintf("s%d", n)
		for k := 1 + rng.Intn(3); k > 0; k-- {
			var rhs []string
			for i := 1 + rng.Intn(3); i > 0; i-- {
				rhs = append(rhs, fmt.Sprintf("b%d", rng.Intn(terms)))
			}
			if shape != Acyclic && rng.Intn(3) > 0 {
				next := fmt.Sprintf("s%d", rng.Intn(nts))
				if shape == RightLinear {
					rhs = append(rhs, next)
				} else {
					rhs = append([]string{next}, rhs...)
				}
			}
			g.Productions[nt] = append(g.Productions[nt], rhs)
		}
	}
	return g
}

// randomCyclicGraph fills b0..b[terms-1] over nodes 0..n-1 with random
// edges and closes one relation into a ring, so every draw has a cycle.
func randomCyclicGraph(rng *rand.Rand, n, terms int) *engine.Database {
	db := engine.NewDatabase()
	for t := 0; t < terms; t++ {
		for i := 0; i < n+rng.Intn(n); i++ {
			db.Add(fmt.Sprintf("b%d", t), fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
		}
	}
	ring := fmt.Sprintf("b%d", rng.Intn(terms))
	for i := 0; i < n; i++ {
		db.Add(ring, fmt.Sprint(i), fmt.Sprint((i+1)%n))
	}
	return db
}

// seeded returns db plus the SeedPred row a seeded program reads c from.
func seeded(db *engine.Database, c string) *engine.Database {
	db = db.Clone()
	db.Add(SeedPred, c)
	return db
}

func answerSet(t *testing.T, p *ast.Program, db *engine.Database) []string {
	t.Helper()
	res, err := engine.Eval(p, db, engine.Options{})
	if err != nil {
		t.Fatalf("%v\n%s", err, p)
	}
	var out []string
	for _, row := range res.Answers(p.Query) {
		out = append(out, strings.Join(row, ","))
	}
	sort.Strings(out)
	return out
}

// shaped applies SeedChainGoal's answer shape to the rows of its
// program's query: c is written into column col of each.
func shaped(rows []string, col int, c string) []string {
	out := make([]string, 0, len(rows))
	for _, row := range rows {
		cols := strings.Split(row, ",")
		out = append(out, strings.Join(slices.Insert(cols, col, c), ","))
	}
	sort.Strings(out)
	return out
}

// TestSeedChainGoalMatchesEval is the gate on the served rewrite: for
// random left-linear, right-linear and acyclic chain programs over random
// cyclic graphs, the seeded monadic program answers p(c,X) and p(X,c) —
// c present in the graph or not — with exactly the rows the unoptimized
// program's evaluation selects for the same goal.
func TestSeedChainGoalMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(33))
	goals := 0
	for _, shape := range []Linearity{RightLinear, LeftLinear, Acyclic} {
		for trial := 0; trial < 40; trial++ {
			g := randomLinearGrammar(rng, shape)
			p := g.ToChainProgram()
			for d := 0; d < 2; d++ {
				n := 3 + rng.Intn(5)
				db := randomCyclicGraph(rng, n, len(g.Terminals))
				consts := []string{"absent"}
				for i := 0; i < n; i++ {
					consts = append(consts, fmt.Sprint(i))
				}
				for _, c := range consts {
					for _, q := range []ast.Atom{
						ast.NewAtom("s0", ast.C(c), ast.V("X")),
						ast.NewAtom("s0", ast.V("X"), ast.C(c)),
					} {
						asked := p.Clone()
						asked.Query = q
						mono, col, ok := SeedChainGoal(asked)
						if !ok {
							t.Fatalf("%v grammar, goal %s: rewrite refused\n%s", Classify(g), q, p)
						}
						want, got := answerSet(t, asked, db), shaped(answerSet(t, mono, seeded(db, c)), col, c)
						if strings.Join(want, " ") != strings.Join(got, " ") {
							t.Fatalf("goal %s over %v:\nwant %v\ngot  %v\nprogram:\n%s\nrewritten:\n%s",
								q, db.Keys(), want, got, p, mono)
						}
						goals++
					}
				}
			}
		}
	}
	t.Logf("%d goals agree", goals)
}

func TestSeedChainGoalShape(t *testing.T) {
	p := mustParse(t, `
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(k,Y).
`)
	mono, col, ok := SeedChainGoal(p)
	if !ok {
		t.Fatal("right-linear closure with a bound first argument was not rewritten")
	}
	// The automaton has one accepting state: its relation is the query,
	// and the constant goes into the answer's first column, underived.
	if got := mono.Query.String(); got != "a'1(Y)" || col != 0 {
		t.Errorf("query = %s, constant column %d; want a'1(Y), 0", got, col)
	}
	// The seed is data: the rules read it from SeedPred and hold no
	// constant, so they are the same for every k.
	for _, want := range []string{"a'1(Y) :- a'1(Z), p(Z,Y).", "a'1(Y) :- seed'(K), p(K,Y)."} {
		if !strings.Contains(mono.String(), want) {
			t.Errorf("no rule %s in\n%s", want, mono)
		}
	}
	if len(mono.Rules) != 2 {
		t.Errorf("%d rules, want the 2 state rules and no answer rule:\n%s", len(mono.Rules), mono)
	}
	for _, r := range mono.Rules {
		for _, a := range append([]ast.Atom{r.Head}, r.Body...) {
			if mono.Derived[a.Key()] && !strings.Contains(a.Pred, "'") {
				t.Errorf("generated predicate %s in %s has no reserved character", a.Key(), r)
			}
			for _, arg := range a.Args {
				if arg.Kind == ast.Constant {
					t.Errorf("rule %s holds the constant %s", r, arg.Name)
				}
			}
		}
	}
	// The generated names are outside the source language.
	if _, err := parser.Parse(mono.String()); err == nil {
		t.Errorf("the rewritten program parses as source, so its names could collide:\n%s", mono)
	}
	// Only the reachable rules must be chain rules.
	p = mustParse(t, `
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
other(X) :- p(X,Y), p(Y,X).
?- a(X,k).
`)
	if mono, col, ok := SeedChainGoal(p); !ok {
		t.Error("an unreachable non-chain rule blocked the rewrite")
	} else if mono.Query.Arity() != 1 || col != 1 {
		t.Errorf("a(X,k): query %s, constant column %d; want a unary query and column 1", mono.Query, col)
	}
}

// TestSeedChainGoalFallsThrough lists every shape the served path must
// evaluate as written.
func TestSeedChainGoalFallsThrough(t *testing.T) {
	const tc = "a(X,Y) :- p(X,Z), a(Z,Y).\na(X,Y) :- p(X,Y).\n"
	cases := []struct{ name, src string }{
		{"no constant", tc + "?- a(X,Y)."},
		{"repeated variable", tc + "?- a(X,X)."},
		{"two constants", tc + "?- a(1,2)."},
		{"anonymous position", tc + "?- a(1,_)."},
		{"base-relation goal", tc + "?- p(1,X)."},
		{"non-binary goal", "a(X) :- p(X,Y).\n?- a(1)."},
		{"non-chain rule", "a(X,Y) :- p(X,Z), q(Z,W,Y).\n?- a(1,Y)."},
		{"negation", "a(X,Y) :- p(X,Y), not q(Y,Y).\n?- a(1,Y)."},
		{"succ terminal", "a(X,Y) :- succ(X,Z), a(Z,Y).\na(X,Y) :- p(X,Y).\n?- a(1,Y)."},
		{"lt terminal", "a(X,Y) :- lt(X,Y).\n?- a(1,Y)."},
		{"neq terminal", "a(X,Y) :- p(X,Z), neq(Z,Y).\n?- a(X,1)."},
		{"not linear", "a(X,Y) :- p(X,Z), a(Z,W), q(W,Y).\na(X,Y) :- p(X,Y).\n?- a(1,Y)."},
		{"unit production", "a(X,Y) :- b(X,Y).\nb(X,Y) :- p(X,Z), b(Z,Y).\nb(X,Y) :- p(X,Y).\n?- a(1,Y)."},
	}
	for _, c := range cases {
		p, err := parser.ParseProgram(c.src)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if mono, _, ok := SeedChainGoal(p); ok || mono != nil {
			t.Errorf("%s: rewritten, want fall-through:\n%s", c.name, mono)
		}
	}
}
