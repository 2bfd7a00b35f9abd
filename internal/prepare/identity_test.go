package prepare

import (
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"existdlog"
	"existdlog/internal/ast"
	"existdlog/internal/engine"
	"existdlog/internal/grammar"
)

// identitySources are chain programs over the cyclic graph besides the
// right- and left-linear closures of chainSources: an acyclic grammar
// (paths of exactly two edges), and an acyclic grammar whose seeded
// automaton, the minimal DFA of {p, pq, pqq, pqqq}, has four accepting
// states, so its served program keeps the union over them.
var identitySources = map[string]string{
	"acyclic": "a(X,Y) :- p(X,Z), p(Z,Y).\n?- a(X,Y).\n" + cyclicEdges,
	"four-accepting": "a(X,Y) :- p(X,Y).\na(X,Y) :- p(X,Z), q(Z,Y).\na(X,Y) :- p(X,Z), q(Z,W), q(W,Y).\n" +
		"a(X,Y) :- p(X,Z), q(Z,W), q(W,V), q(V,Y).\n?- a(X,Y).\n" + cyclicEdges + "q(1,4). q(4,5). q(5,0). q(3,3).\n",
}

// unionRules counts the rules of a chain-rewritten program that only copy
// one state relation into another, reading no edge: the answer rules that
// take the union over the automaton's accepting states.
func unionRules(p *ast.Program) int {
	n := 0
	for _, r := range p.Rules {
		if !slices.ContainsFunc(r.Body, func(b ast.Atom) bool { return !p.Derived[b.Key()] && b.Pred != grammar.SeedPred }) {
			n++
		}
	}
	return n
}

// sameTable reports how the answer table got differs from want, or "".
func sameTable(got, want engine.AnswerTable) string {
	if !slices.Equal(got.Dict, want.Dict) {
		return fmt.Sprintf("dict %v, want %v", got.Dict, want.Dict)
	}
	if got.Len() != want.Len() {
		return fmt.Sprintf("%d rows, want %d", got.Len(), want.Len())
	}
	for i := 0; i < got.Len(); i++ {
		if !slices.Equal(got.Row(i), want.Row(i)) {
			return fmt.Sprintf("row %d is %v, want %v", i, got.Row(i), want.Row(i))
		}
	}
	return ""
}

// TestChainAnswerTableIdentity is the gate on how a chain-rewritten goal's
// answers are built: for every goal the differential drawers ask that is
// served by the chain rewrite — TestPreparedMatchesScratch's goal shapes
// and constants over its programs, and TestChainGoalRewrite's bound goals
// of every node in both directions over the right-linear, left-linear and
// acyclic chain programs — Prepared.Eval's answer table must equal a
// scratch AnswerRows of the program as written, dictionary, length and
// every row in order. The goals include a constant in its own answer (a
// cycle), one reaching nothing, and one absent from the facts (node 7).
// A run cut short by MaxFacts must answer a subset of the full answer.
func TestChainAnswerTableIdentity(t *testing.T) {
	progs := diffPrograms(t)
	for _, name := range []string{"acyclic", "four-accepting"} {
		prog, db, err := existdlog.Parse(identitySources[name])
		if err != nil {
			t.Fatal(err)
		}
		progs = append(progs, diffProgram{name, prog, db})
	}
	consts := [][2]string{{"0", "1"}, {"1", "1"}, {"2", "0"}, {"3", "2"}, {"9", "0"}}
	var nodes [][2]string
	for node := 0; node <= 7; node++ {
		nodes = append(nodes, [2]string{fmt.Sprint(node)})
	}
	opts := existdlog.DefaultOptions()
	var goals, cycles, unreached, absent, partial, multi int
	for _, dp := range progs {
		pred := dp.prog.Query.Pred
		drawn := map[string][][2]string{}
		for _, shape := range goalShapes(pred, dp.prog.Query.Arity()) {
			drawn[shape] = consts
		}
		if chainSources[dp.name] != "" || identitySources[dp.name] != "" {
			drawn[pred+"(#1,Y)"], drawn[pred+"(X,#1)"] = nodes, nodes
		}
		for shape, cs := range drawn {
			p, err := Prepare(dp.prog, parseGoal(t, bind(shape, cs[0])), &opts)
			if err != nil {
				t.Fatalf("%s %s: %v", dp.name, shape, err)
			}
			if p.Rewrite != Chain {
				continue
			}
			if unionRules(p.Program) > 1 {
				multi++
			}
			for _, c := range cs {
				goal := parseGoal(t, bind(shape, c))
				raw := dp.prog.Clone()
				raw.Query = goal
				ref, err := engine.Eval(raw, dp.db, engine.Options{})
				if err != nil {
					t.Fatalf("%s %s: scratch: %v", dp.name, goal, err)
				}
				want := ref.AnswerRows(goal)
				_, got, err := p.Eval(context.Background(), dp.db, goal, engine.Options{BooleanCut: true})
				if err != nil {
					t.Fatalf("%s %s: %v", dp.name, goal, err)
				}
				if diff := sameTable(got, want); diff != "" {
					t.Errorf("%s %s: %s\nserved program:\n%s", dp.name, goal, diff, p.Program)
				}
				goals++
				k := slices.IndexFunc(goal.Args, func(a ast.Term) bool { return a.Kind == ast.Constant })
				name := goal.Args[k].Name
				if _, known := dp.db.Syms.Lookup(name); !known {
					absent++
				} else if want.Len() == 0 {
					unreached++
				} else if cyclicAnswer(want, k, name) {
					cycles++
				}

				full := map[string]bool{}
				for i := 0; i < want.Len(); i++ {
					full[strings.Join(want.Strings(i), ",")] = true
				}
				res, cut, err := p.Eval(context.Background(), dp.db, goal, engine.Options{BooleanCut: true, MaxFacts: 2})
				if err != nil && (res == nil || !res.Partial) {
					t.Fatalf("%s %s under MaxFacts: %v", dp.name, goal, err)
				}
				if res.Partial {
					partial++
				}
				for i := 0; i < cut.Len(); i++ {
					if row := strings.Join(cut.Strings(i), ","); !full[row] {
						t.Errorf("%s %s under MaxFacts: row %s is not in the full answer", dp.name, goal, row)
					}
				}
			}
		}
	}
	t.Logf("%d chain goals identical (%d answer their own constant, %d reach nothing, %d absent, %d partial runs); %d served automata with more than one accepting state",
		goals, cycles, unreached, absent, partial, multi)
	if goals == 0 || cycles == 0 || unreached == 0 || absent == 0 || partial == 0 || multi == 0 {
		t.Error("vacuous run: some case above was never drawn")
	}
}

// cyclicAnswer reports whether some answer holds c in the column other
// than k, the goal's constant's: c reaches itself.
func cyclicAnswer(t engine.AnswerTable, k int, c string) bool {
	for i := 0; i < t.Len(); i++ {
		if t.Strings(i)[1-k] == c {
			return true
		}
	}
	return false
}
