package engine_test

import (
	"fmt"
	"testing"

	"existdlog/internal/engine"
	"existdlog/internal/grammar"
	"existdlog/internal/parser"
)

// TestPlanMissesIndependentOfPasses checks that planning does not scale
// with passes: on the seeded chain program (the monadic program a bound
// chain goal is served with), a chain 8× longer runs about 8× the passes,
// yet the planner builds the same plans — at most two per rule version —
// because every later pass finds its order in the version's memo.
func TestPlanMissesIndependentOfPasses(t *testing.T) {
	base, err := parser.ParseProgram("tc(X,Y) :- e(X,Z), tc(Z,Y).\ntc(X,Y) :- e(X,Y).\n?- tc(n0,Y).\n")
	if err != nil {
		t.Fatal(err)
	}
	seeded, ok := grammar.SeedChainGoal(base)
	if !ok {
		t.Fatal("the chain goal was not rewritten")
	}
	misses := func(n int) (map[[2]int]int, int) {
		db := engine.NewDatabase()
		for i := 0; i < n; i++ {
			db.Add("e", fmt.Sprintf("n%d", i), fmt.Sprintf("n%d", i+1))
		}
		db.Add(grammar.SeedPred, "n0")
		counts := map[[2]int]int{}
		*engine.PlanMissHook = func(rule, occ int) { counts[[2]int{rule, occ}]++ }
		defer func() { *engine.PlanMissHook = nil }()
		res, err := engine.Eval(seeded, db, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got := len(res.Answers(seeded.Query)); got != n {
			t.Fatalf("chain of %d: %d answers, want %d", n, got, n)
		}
		return counts, res.Stats.Iterations
	}
	short, shortPasses := misses(50)
	long, longPasses := misses(400)
	if longPasses < 8*shortPasses-16 {
		t.Fatalf("passes: %d at length 50, %d at length 400; the test needs passes that grow with the chain", shortPasses, longPasses)
	}
	if fmt.Sprint(short) != fmt.Sprint(long) {
		t.Errorf("plans built per (rule, occ): %v at length 50 (%d passes), %v at length 400 (%d passes)",
			short, shortPasses, long, longPasses)
	}
	if len(long) == 0 {
		t.Fatal("the planner built no plan")
	}
	for v, n := range long {
		if n > 2 {
			t.Errorf("rule %d occ %d: %d plans built, want ≤ 2", v[0], v[1], n)
		}
	}
	t.Logf("plans built per (rule, occ): %v over %d passes", long, longPasses)
}
