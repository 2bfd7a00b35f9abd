package prepare

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"existdlog"
	"existdlog/internal/ast"
	"existdlog/internal/engine"
	"existdlog/internal/trace"
)

// cyclicEdges is a 6-node graph with two cycles (0→1→2→0 and 3→4→5→3),
// a bridge between them and a node (6) reachable but reaching nothing.
const cyclicEdges = "p(0,1). p(1,2). p(2,0). p(2,3). p(3,4). p(4,5). p(5,3). p(5,6).\n"

// chainSources are a right- and a left-linear closure of p over the
// cyclic graph, and a closure with no exit rule, whose bound goals the
// optimizer proves empty.
var chainSources = map[string]string{
	"right-linear": "a(X,Y) :- p(X,Z), a(Z,Y).\na(X,Y) :- p(X,Y).\n?- a(X,Y).\n" + cyclicEdges,
	"left-linear":  "a(X,Y) :- a(X,Z), p(Z,Y).\na(X,Y) :- p(X,Y).\n?- a(X,Y).\n" + cyclicEdges,
	"no-exit":      "a(X,Y) :- p(X,Z), a(Z,Y).\n?- a(X,Y).\n" + cyclicEdges,
}

// diffProgram is one program of the differential test with the facts it
// is evaluated over.
type diffProgram struct {
	name string
	prog *ast.Program
	db   *engine.Database
}

// diffPrograms returns every testdata/corpus program over random facts
// for its base relations, and the chain programs over the cyclic graph.
func diffPrograms(t *testing.T) []diffProgram {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("..", "..", "testdata", "corpus", "*.dl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no corpus programs: %v", err)
	}
	var out []diffProgram
	rng := rand.New(rand.NewSource(53))
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		prog, db, err := existdlog.Parse(string(src))
		if err != nil {
			t.Fatal(err)
		}
		for _, key := range baseKeys(prog) {
			pred, arity := key.pred, key.arity
			for i := 0; i < 4+rng.Intn(8); i++ {
				row := make([]string, arity)
				for j := range row {
					row[j] = fmt.Sprint(rng.Intn(4))
				}
				db.Add(pred, row...)
			}
		}
		out = append(out, diffProgram{filepath.Base(file), prog, db})
	}
	names := make([]string, 0, len(chainSources))
	for name := range chainSources {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		prog, db, err := existdlog.Parse(chainSources[name])
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, diffProgram{name, prog, db})
	}
	return out
}

type baseKey struct {
	pred  string
	arity int
}

// baseKeys lists the base relations p's rules read, sorted by name.
func baseKeys(p *ast.Program) []baseKey {
	seen := map[string]bool{}
	var keys []baseKey
	for _, r := range p.Rules {
		for _, b := range r.Body {
			if p.Derived[b.Key()] || engine.IsBuiltin(b.Pred, b.Arity()) || seen[b.Key()] {
				continue
			}
			seen[b.Key()] = true
			keys = append(keys, baseKey{b.Key(), b.Arity()})
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].pred < keys[j].pred })
	return keys
}

// goalShapes writes the goal shapes of the differential test for a
// predicate of the given arity, with #1 and #2 standing for constants
// (see bind): free, one constant on either side, two constants, a repeated
// variable and an anonymous position, as far as the arity allows.
func goalShapes(pred string, arity int) []string {
	vars := func(args ...string) string {
		for len(args) < arity {
			args = append(args, fmt.Sprintf("V%d", len(args)))
		}
		return pred + "(" + strings.Join(args[:arity], ",") + ")"
	}
	shapes := []string{vars(), vars("#1")}
	if arity == 1 {
		return append(shapes, vars("_"))
	}
	last := func(arg string) string {
		args := make([]string, arity)
		for i := range args {
			args[i] = fmt.Sprintf("V%d", i)
		}
		args[arity-1] = arg
		return vars(args...)
	}
	return append(shapes, last("#1"), vars("#1", "#2"), vars("X", "X"), last("_"))
}

// answerSet renders rows as a sorted set over goal's needed columns: a
// row that still holds the anonymous positions (the program as written
// keeps them) drops them; an optimized row has already lost them.
func answerSet(t *testing.T, goal ast.Atom, rows [][]string) string {
	t.Helper()
	var kept []int
	for i, a := range goal.Args {
		if !a.IsAnon() {
			kept = append(kept, i)
		}
	}
	set := map[string]bool{}
	for _, row := range rows {
		switch len(row) {
		case len(goal.Args):
			cols := make([]string, len(kept))
			for k, i := range kept {
				cols[k] = row[i]
			}
			row = cols
		case len(kept):
		default:
			t.Fatalf("%s: answer row %v has neither the goal's arity nor its needed columns", goal, row)
		}
		set[strings.Join(row, ",")] = true
	}
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return "{" + strings.Join(out, " ") + "}"
}

// bind writes the constants c into shape's #1 and #2.
func bind(shape string, c [2]string) string {
	return strings.NewReplacer("#1", c[0], "#2", c[1]).Replace(shape)
}

func parseGoal(t *testing.T, src string) ast.Atom {
	t.Helper()
	p, err := existdlog.ParseProgram("?- " + src + ".")
	if err != nil {
		t.Fatalf("goal %s: %v", src, err)
	}
	return p.Query
}

// TestPreparedMatchesScratch is the differential gate on the prepared
// path: for every corpus and chain program, and every goal shape over its
// query predicate, a base relation and an undefined predicate, the goal is
// prepared once for one pair of constants and then evaluated for others,
// as the server's cache does. Each answer set must equal a scratch
// evaluation of the program as written on the needed columns, both
// optimized and under -noopt, and a goal proved empty must have no
// answers.
func TestPreparedMatchesScratch(t *testing.T) {
	consts := [][2]string{{"0", "1"}, {"1", "1"}, {"2", "0"}, {"3", "2"}, {"9", "0"}}
	opts := existdlog.DefaultOptions()
	chained, empty, answered := 0, 0, 0
	for _, dp := range diffPrograms(t) {
		shapes := goalShapes(dp.prog.Query.Pred, dp.prog.Query.Arity())
		if bases := baseKeys(dp.prog); len(bases) > 0 {
			shapes = append(shapes, goalShapes(bases[0].pred, bases[0].arity)[:2]...)
		}
		shapes = append(shapes, "zz(V0,#1)")
		for _, shape := range shapes {
			pattern := parseGoal(t, bind(shape, consts[0]))
			for _, o := range []*existdlog.Options{&opts, nil} {
				p, err := Prepare(dp.prog, pattern, o)
				if err != nil {
					t.Fatalf("%s %s: %v", dp.name, pattern, err)
				}
				if p.Rewrite == Chain {
					chained++
				}
				if p.Empty {
					empty++
				}
				for _, c := range consts {
					goal := parseGoal(t, bind(shape, c))
					raw := dp.prog.Clone()
					raw.Query = goal
					ref, err := engine.Eval(raw, dp.db, engine.Options{})
					if err != nil {
						t.Fatalf("%s %s: scratch: %v", dp.name, goal, err)
					}
					want := answerSet(t, goal, ref.Answers(goal))
					if want != "{}" {
						answered++
					}
					got := "{}"
					if !p.Empty {
						_, ans, err := p.Eval(context.Background(), dp.db, goal, engine.Options{BooleanCut: true})
						if err != nil {
							t.Fatalf("%s %s: %v", dp.name, goal, err)
						}
						rows := make([][]string, ans.Len())
						for i := range rows {
							rows[i] = ans.Strings(i)
						}
						got = answerSet(t, goal, rows)
					}
					if got != want {
						t.Errorf("%s %s (optimized %v, prepared for %s, rewrite %q, empty %v): answers %s, scratch %s",
							dp.name, goal, o != nil, pattern, p.Rewrite, p.Empty, got, want)
					}
				}
			}
		}
	}
	if chained == 0 || empty == 0 || answered == 0 {
		t.Errorf("vacuous run: %d chain rewrites, %d proved empty, %d non-empty answers", chained, empty, answered)
	}
}

// TestPrepareChainRewrite: a bound goal over a linear chain program is
// rewritten, the report gains the rewrite as its last stage, and the
// reported goal stays the optimizer's.
func TestPrepareChainRewrite(t *testing.T) {
	prog, _, err := existdlog.Parse(chainSources["right-linear"])
	if err != nil {
		t.Fatal(err)
	}
	opts := existdlog.DefaultOptions()
	p, err := Prepare(prog, parseGoal(t, "a(4,Y)"), &opts)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rewrite != Chain || p.Empty {
		t.Fatalf("a(4,Y): rewrite %q, empty %v; want the chain rewrite", p.Rewrite, p.Empty)
	}
	if got := p.Goal.String(); got != "a@nn(4,Y)" {
		t.Errorf("reported goal %s, want a@nn(4,Y)", got)
	}
	stages := p.Explain.Stages
	if last := stages[len(stages)-1]; last.Name != "chain-rewrite" || last.Program != p.Program.String() {
		t.Errorf("last stage %q does not hold the rewritten program:\n%s", last.Name, last.Program)
	}
	if slices.ContainsFunc(stages[:len(stages)-1], func(s trace.Stage) bool { return s.Name == "chain-rewrite" }) {
		t.Error("chain-rewrite reported twice")
	}
}

// TestChainRewriteFallsThrough: under -noopt, and for a goal the optimizer
// proves empty, the chain rewrite does not apply.
func TestChainRewriteFallsThrough(t *testing.T) {
	goal := ast.NewAtom("a", ast.C("1"), ast.V("Y"))

	prog, _, err := existdlog.Parse(chainSources["right-linear"])
	if err != nil {
		t.Fatal(err)
	}
	p, err := Prepare(prog, goal, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p.Rewrite != "" || p.Explain != nil || !p.Goal.Equal(goal) {
		t.Errorf("-noopt: rewrite %q, explain %v, goal %s; want the program as written", p.Rewrite, p.Explain != nil, p.Goal)
	}

	if prog, _, err = existdlog.Parse(chainSources["no-exit"]); err != nil {
		t.Fatal(err)
	}
	opts := existdlog.DefaultOptions()
	if p, err = Prepare(prog, goal, &opts); err != nil {
		t.Fatal(err)
	}
	if !p.Empty || p.Rewrite != "" {
		t.Errorf("proved-empty goal: empty %v, rewrite %q", p.Empty, p.Rewrite)
	}
}
