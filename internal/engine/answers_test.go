package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"existdlog/internal/ast"
)

// oracleAnswers is the answer path Answers replaced, kept as the order
// oracle: decode every matching row to names, then sort the string rows.
func oracleAnswers(res *Result, q ast.Atom) [][]string {
	rel, ok := res.DB.Lookup(q.Key())
	if !ok {
		return nil
	}
	if rel.Arity() != len(q.Args) {
		return nil
	}
	firstSlot := make(map[string]int)
	var out [][]string
	for ti := 0; ti < rel.Len(); ti++ {
		t := rel.Tuple(ti)
		ok := true
		for k := range firstSlot {
			delete(firstSlot, k)
		}
		for i, a := range q.Args {
			switch a.Kind {
			case ast.Constant:
				id, found := res.DB.Syms.Lookup(a.Name)
				if !found || t[i] != id {
					ok = false
				}
			case ast.Variable:
				if a.IsAnon() {
					continue
				}
				if j, seen := firstSlot[a.Name]; seen {
					if t[j] != t[i] {
						ok = false
					}
				} else {
					firstSlot[a.Name] = i
				}
			}
			if !ok {
				break
			}
		}
		if !ok {
			continue
		}
		row := make([]string, len(t))
		for i, id := range t {
			row[i] = res.DB.Syms.Name(id)
		}
		out = append(out, row)
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
	return out
}

// answerNames is the constant pool of TestAnswersMatchOracle: numbered
// names whose string order is not their numeric order, quoted constants
// holding a comma, a single quote or a double quote, non-ASCII names, the
// empty name and the anonymous "_".
var answerNames = []string{
	"n1", "n2", "n3", "n9", "n10", "n11", "n20", "n100",
	"a,b", "it's", `say "hi"`, "a", "A", "Z", "",
	"é", "Zürich", "日本", "ß", "_",
}

// TestAnswersMatchOracle: on seeded random relations of arity 0 to 3 and
// random goals (constants present, interned but unused, and never
// interned; repeated variables; '_'), Answers equals the string-sorting
// oracle, nil included, and AnswerCount equals its length.
func TestAnswersMatchOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(44))
	vars := []string{"X", "Y", "Z", "_", "_W"}
	for c := 0; c < 600; c++ {
		db := NewDatabase()
		// Intern in a random order, so ids disagree with string order.
		for _, i := range rng.Perm(len(answerNames)) {
			db.Syms.Intern(answerNames[i])
		}
		arity := rng.Intn(4)
		used := answerNames[:1+rng.Intn(len(answerNames))]
		rel := db.Relation("q", arity)
		row := make(Tuple, arity)
		for n := rng.Intn(60); n > 0; n-- {
			for k := range row {
				row[k] = db.Syms.Intern(used[rng.Intn(len(used))])
			}
			rel.Insert(row)
		}
		goal := ast.Atom{Pred: "q", Args: make([]ast.Term, arity)}
		for k := range goal.Args {
			switch r := rng.Intn(10); {
			case r < 2:
				goal.Args[k] = ast.C(used[rng.Intn(len(used))])
			case r < 3:
				goal.Args[k] = ast.C(answerNames[rng.Intn(len(answerNames))])
			case r < 4 && c%7 == 0:
				goal.Args[k] = ast.C("never-interned")
			default:
				goal.Args[k] = ast.V(vars[rng.Intn(len(vars))])
			}
		}
		switch c % 50 {
		case 1:
			goal.Pred = "missing"
		case 2:
			goal.Args = append(goal.Args, ast.V("X"))
		}
		res := &Result{DB: db}
		want := oracleAnswers(res, goal)
		if got := res.Answers(goal); !reflect.DeepEqual(got, want) {
			t.Fatalf("case %d, goal %s over %d rows: Answers = %q, oracle = %q",
				c, goal, rel.Len(), got, want)
		}
		if got := res.AnswerCount(goal); got != len(want) {
			t.Fatalf("case %d, goal %s: AnswerCount = %d, oracle has %d rows", c, goal, got, len(want))
		}
	}
}

// TestAnswerCountAllocs: AnswerCount scans the rows without decoding
// them, so its allocations do not grow with the relation.
func TestAnswerCountAllocs(t *testing.T) {
	allocs := func(rows int) float64 {
		db := NewDatabase()
		for i := 0; i < rows; i++ {
			db.Add("q", fmt.Sprint(i%7), fmt.Sprint(i))
		}
		res := &Result{DB: db}
		goal := ast.Atom{Pred: "q", Args: []ast.Term{ast.C("3"), ast.V("Y")}}
		if n := res.AnswerCount(goal); n != (rows+3)/7 {
			t.Fatalf("%d rows: AnswerCount = %d, want %d", rows, n, (rows+3)/7)
		}
		return testing.AllocsPerRun(20, func() { res.AnswerCount(goal) })
	}
	if small, large := allocs(70), allocs(7000); large != small {
		t.Errorf("AnswerCount allocates %.0f times on 70 rows, %.0f on 7000", small, large)
	}
}
