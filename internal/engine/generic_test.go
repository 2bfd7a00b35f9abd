package engine_test

import (
	"math/rand"
	"strings"
	"testing"

	"existdlog"
	"existdlog/internal/ast"
	"existdlog/internal/engine"
	"existdlog/internal/grammar"
	"existdlog/internal/parser"
)

// rulesText renders a program's rules without its query.
func rulesText(p *ast.Program) string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	return sb.String()
}

// stepRules drops the query line from an optimizer step's program text.
func stepRules(text string) string {
	var keep []string
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "?-") {
			keep = append(keep, line)
		}
	}
	return strings.Join(keep, "\n")
}

// TestOptimizeGenericInGoalConstants is the gate on compiling once per
// binding pattern: for programs from the engine's random drawers, two
// goals that differ only in their constants optimize, under
// DefaultOptions, to byte-identical rules and the same EmptyAnswer, and
// their queries agree once the first is bound to the second goal's
// constants (Atom.BindConstants). The same holds for the chain rewrite
// applied after the optimizer. Goal shapes: one and two constants, a
// repeated constant against a repeated and a distinct pair, an anonymous
// position, and the constant c0 that the rules themselves mention. A
// stage whose output depends on a constant's value is named in the
// failure.
func TestOptimizeGenericInGoalConstants(t *testing.T) {
	rng := rand.New(rand.NewSource(32))
	pairs, chains := 0, 0
	check := func(src string, g1, g2 ast.Atom) {
		t.Helper()
		p, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("%v\n%s", err, src)
		}
		opt := func(g ast.Atom) (*existdlog.OptimizeResult, error) {
			q := p.Clone()
			q.Query = g
			return existdlog.Optimize(q, existdlog.DefaultOptions())
		}
		r1, err1 := opt(g1)
		r2, err2 := opt(g2)
		if (err1 == nil) != (err2 == nil) {
			t.Fatalf("%s: %v, %s: %v\n%s", g1, err1, g2, err2, src)
		}
		if err1 != nil {
			return
		}
		pairs++
		if rulesText(r1.Program) != rulesText(r2.Program) {
			stage := "the final program"
			for i := range r1.Steps {
				if stepRules(r1.Steps[i].Program) != stepRules(r2.Steps[i].Program) {
					stage = r1.Steps[i].Name
					break
				}
			}
			t.Fatalf("stage %s reads the goal's constants: %s and %s optimize to\n%s\nand\n%s\nprogram:\n%s",
				stage, g1, g2, r1.Program, r2.Program, src)
		}
		if r1.EmptyAnswer != r2.EmptyAnswer {
			t.Fatalf("%s: EmptyAnswer %v, %s: %v\n%s", g1, r1.EmptyAnswer, g2, r2.EmptyAnswer, src)
		}
		if got, want := r1.Program.Query.BindConstants(g2), r2.Program.Query; !got.Equal(want) {
			t.Fatalf("%s's query %s bound to %s is %s, want %s\n%s", g1, r1.Program.Query, g2, got, want, src)
		}
		m1, ok1 := grammar.SeedChainGoal(r1.Program)
		m2, ok2 := grammar.SeedChainGoal(r2.Program)
		if ok1 != ok2 {
			t.Fatalf("chain rewrite applies to %s: %v, to %s: %v\n%s", g1, ok1, g2, ok2, src)
		}
		if !ok1 {
			return
		}
		chains++
		if rulesText(m1) != rulesText(m2) {
			t.Fatalf("chain rewrite reads the goal's constant: %s gives\n%s\n%s gives\n%s", g1, m1, g2, m2)
		}
		if got, want := m1.Query.BindConstants(g2), m2.Query; !got.Equal(want) {
			t.Fatalf("chain query %s bound to %s is %s, want %s", m1.Query, g2, got, want)
		}
	}
	c, v := ast.C, ast.V
	for trial := 0; trial < 40; trial++ {
		src := strings.Replace(engine.RandomProgram(rng), "?- d1(X,Y).\n", "", 1) +
			"d2(c0,Y) :- f(Y,c0).\n"
		for _, d := range []string{"d1", "d2", "d3"} {
			a := func(args ...ast.Term) ast.Atom { return ast.NewAtom(d, args...) }
			for _, pair := range [][2]ast.Atom{
				{a(c("1"), v("X")), a(c("2"), v("X"))},
				{a(v("X"), c("1")), a(v("X"), c("2"))},
				{a(c("1"), c("2")), a(c("3"), c("4"))},
				{a(c("1"), c("1")), a(c("2"), c("2"))},
				{a(c("1"), c("1")), a(c("1"), c("2"))},
				{a(c("1"), v("_")), a(c("2"), v("_"))},
				{a(v("_"), c("1")), a(v("_"), c("2"))},
				{a(c("c0"), v("X")), a(c("5"), v("X"))},
				{a(c("c0"), c("c0")), a(c("5"), c("6"))},
			} {
				check(src, pair[0], pair[1])
			}
		}
		src = engine.RandomStratifiedProgram(rng)
		src = src[:strings.LastIndex(src, "?-")] + "top(c0) :- f(c0,c0).\n"
		check(src, ast.NewAtom("top", c("1")), ast.NewAtom("top", c("2")))
		check(src, ast.NewAtom("top", c("c0")), ast.NewAtom("top", c("1")))
	}
	if chains == 0 {
		t.Error("no drawn goal reached the chain rewrite")
	}
	t.Logf("%d goal pairs agree, %d through the chain rewrite", pairs, chains)
}
