package engine

import (
	"fmt"
	"math/rand"
	"testing"
	"time"
)

// boolCutSrc derives a boolean guard from the base relation and routes
// the query through it, so the runtime cut retires rules once the guard
// holds. Used by the Retract-cut regression below.
const boolCutSrc = `
b :- p(X,Y).
a(X,Y) :- p(X,Y), b.
?- a(X,Y).
`

// cutSet returns the indices of rules the trace recorded as retired.
func cutSet(res *Result) map[int]bool {
	out := map[int]bool{}
	if res.Trace == nil {
		return out
	}
	for i := range res.Trace.Rules {
		if res.Trace.Rules[i].CutPass > 0 {
			out[i] = true
		}
	}
	return out
}

// TestRetractAppliesBooleanCut is the regression for the re-derive loop
// skipping ev.applyCut(): after retracting p(2,3), the boolean b still
// holds (re-derived from p(1,2)), so its rule must be retired exactly as
// a fresh Eval of the surviving database retires it — same
// Stats.RulesRetired, same set of rules with trace Cut events. Before
// the fix, Retract reported zero retired rules here.
func TestRetractAppliesBooleanCut(t *testing.T) {
	p := mustParse(t, boolCutSrc)
	db := NewDatabase()
	db.Add("p", "1", "2")
	db.Add("p", "2", "3")
	opt := Options{BooleanCut: true, Trace: true}

	prev, err := Eval(p, db, opt)
	if err != nil {
		t.Fatal(err)
	}
	removed := NewDatabase()
	removed.Add("p", "2", "3")
	got, err := Retract(p, prev, removed, opt)
	if err != nil {
		t.Fatal(err)
	}

	final := NewDatabase()
	final.Add("p", "1", "2")
	want, err := Eval(p, final, opt)
	if err != nil {
		t.Fatal(err)
	}

	if fmt.Sprint(got.Answers(p.Query)) != fmt.Sprint(want.Answers(p.Query)) {
		t.Fatalf("answers diverge\nretract: %v\nscratch: %v",
			got.Answers(p.Query), want.Answers(p.Query))
	}
	if got.Stats.RulesRetired != want.Stats.RulesRetired {
		t.Errorf("RulesRetired = %d after retraction, scratch Eval retires %d",
			got.Stats.RulesRetired, want.Stats.RulesRetired)
	}
	if want.Stats.RulesRetired == 0 {
		t.Fatal("test program never triggers the cut; the regression is vacuous")
	}
	if g, w := cutSet(got), cutSet(want); fmt.Sprint(g) != fmt.Sprint(w) {
		t.Errorf("trace Cut events diverge: retract retired %v, scratch %v", g, w)
	}
}

// randomBoolProgram wraps randomProgram's positive vocabulary with a
// boolean guard on the query path, so incremental chains exercise the
// runtime cut (randomProgram alone has no arity-0 heads). The guard
// reads a base relation: a guard over a derived predicate that the
// cut's cascade stops maintaining has no exact DRed re-derivation (the
// cut legitimately under-computes unneeded relations, and a retraction
// can make the guard need them again), which is a documented limit of
// combining Retract with the cut, not the regression under test.
func randomBoolProgram(rng *rand.Rand) string {
	base := randomProgram(rng)
	base = base[:len(base)-len("?- d1(X,Y).\n")]
	return base + "g :- e(U,V).\nq(X,Y) :- d1(X,Y), g.\n?- q(X,Y).\n"
}

// TestIncrementalMatchesScratch is the incremental-vs-scratch
// equivalence property: random positive programs, random chains of
// Update and Retract operations over the base relations, each step
// compared against a from-scratch Eval of the database the chain has
// built so far.
//
// Without the cut, full fixpoint equality is required relation by
// relation. With the cut, query answers must agree, and — this is what
// the Retract cut fix buys — the final retired-rule stats and the set
// of traced Cut events must match the scratch run whenever the step did
// real incremental work (no-op steps return without a pass, hence
// without a cut barrier, exactly like Update on empty deltas).
func TestIncrementalMatchesScratch(t *testing.T) {
	defer checkNoLeakedGoroutines(t)()
	rng := rand.New(rand.NewSource(929292))
	const trials = 60
	for trial := 0; trial < trials; trial++ {
		var src string
		if trial%2 == 0 {
			src = randomProgram(rng)
		} else {
			src = randomBoolProgram(rng)
		}
		p := mustParse(t, src)
		for _, cut := range []bool{false, true} {
			opt := Options{BooleanCut: cut, Trace: true}
			full := NewDatabase()
			n := 3 + rng.Intn(4)
			for i := 0; i < 2*n; i++ {
				full.Add("e", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
				full.Add("f", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
			}
			res, err := Eval(p, full, opt)
			if err != nil {
				t.Fatalf("trial %d cut=%v: %v\n%s", trial, cut, err, src)
			}
			steps := 3 + rng.Intn(4)
			for step := 0; step < steps; step++ {
				rel := []string{"e", "f"}[rng.Intn(2)]
				effective := false
				if rng.Intn(3) > 0 { // update twice as often as retract
					added := NewDatabase()
					for i := 0; i < 1+rng.Intn(3); i++ {
						x, y := fmt.Sprint(rng.Intn(n+2)), fmt.Sprint(rng.Intn(n+2))
						added.Add(rel, x, y)
						if full.Add(rel, x, y) {
							effective = true
						}
					}
					res, err = Update(p, res, added, opt)
				} else {
					rows := full.Facts(rel)
					if len(rows) == 0 {
						continue
					}
					row := rows[rng.Intn(len(rows))]
					removed := NewDatabase()
					removed.Add(rel, row...)
					effective = full.RemoveFacts(rel, [][]string{row}) > 0
					res, err = Retract(p, res, removed, opt)
				}
				if err != nil {
					t.Fatalf("trial %d cut=%v step %d: %v\n%s", trial, cut, step, err, src)
				}
				want, err := Eval(p, full, opt)
				if err != nil {
					t.Fatalf("trial %d cut=%v step %d scratch: %v\n%s", trial, cut, step, err, src)
				}
				if got, ref := fmt.Sprint(res.Answers(p.Query)), fmt.Sprint(want.Answers(p.Query)); got != ref {
					t.Fatalf("trial %d cut=%v step %d: answers diverge\ninc:     %s\nscratch: %s\n%s",
						trial, cut, step, got, ref, src)
				}
				if !cut {
					for key := range p.Derived {
						if fmt.Sprint(res.DB.Facts(key)) != fmt.Sprint(want.DB.Facts(key)) {
							t.Fatalf("trial %d step %d: %s diverges from scratch\ninc:     %v\nscratch: %v\n%s",
								trial, step, key, res.DB.Facts(key), want.DB.Facts(key), src)
						}
					}
					continue
				}
				if !effective {
					continue // no pass ran, so no cut barrier: stats stay zero
				}
				if res.Stats.RulesRetired != want.Stats.RulesRetired {
					t.Fatalf("trial %d step %d: RulesRetired %d, scratch %d\n%s",
						trial, step, res.Stats.RulesRetired, want.Stats.RulesRetired, src)
				}
				if g, w := cutSet(res), cutSet(want); fmt.Sprint(g) != fmt.Sprint(w) {
					t.Fatalf("trial %d step %d: Cut events %v, scratch %v\n%s", trial, step, g, w, src)
				}
			}
		}
	}
}

// TestIncrementalPassTimes pins Result.PassTimes' promise — one entry per
// pass, aligned with Trace.Passes, strictly increasing — for Update and
// Retract, and that every traced Retract pass (over-delete
// passes and the re-derive seeding pass alike) records its join orders.
// Before the incremental entry points shared Eval's pass executor they
// returned no PassTimes at all, and over-delete passes planned nothing.
func TestIncrementalPassTimes(t *testing.T) {
	p := mustParse(t, tcSrc)
	opt := Options{Trace: true, PassTimes: true}
	base, err := Eval(p, chainDB(8), opt)
	if err != nil {
		t.Fatal(err)
	}
	added := NewDatabase()
	added.Add("p", "8", "9")
	upd, err := Update(p, base, added, opt)
	if err != nil {
		t.Fatal(err)
	}
	removed := NewDatabase()
	removed.Add("p", "3", "4")
	ret, err := Retract(p, upd, removed, opt)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name string
		res  *Result
	}{{"update", upd}, {"retract", ret}} {
		passes := c.res.Trace.Passes
		if len(passes) == 0 || len(c.res.PassTimes) != len(passes) {
			t.Fatalf("%s: %d PassTimes for %d trace passes", c.name, len(c.res.PassTimes), len(passes))
		}
		if c.res.Stats.Iterations != len(passes) {
			t.Errorf("%s: Stats.Iterations = %d, trace has %d passes", c.name, c.res.Stats.Iterations, len(passes))
		}
		last := time.Duration(0)
		for i, off := range c.res.PassTimes {
			if off <= last {
				t.Errorf("%s: PassTimes[%d] = %v does not exceed %v", c.name, i, off, last)
			}
			last = off
		}
	}
	for _, ps := range ret.Trace.Passes {
		if len(ps.Orders) != ps.Versions {
			t.Errorf("retract pass %d: %d order records for %d versions", ps.Pass, len(ps.Orders), ps.Versions)
		}
	}
}

// TestRemoveFacts pins the Database removal helper the durable store and
// WAL replay rely on: present rows go, absent rows and unknown constants
// are ignored, and the surviving relation still answers matches.
func TestRemoveFacts(t *testing.T) {
	db := NewDatabase()
	db.Add("p", "1", "2")
	db.Add("p", "2", "3")
	db.Add("p", "3", "4")
	n := db.RemoveFacts("p", [][]string{{"2", "3"}, {"9", "9"}, {"nope", "1"}, {"1"}})
	if n != 1 {
		t.Errorf("RemoveFacts = %d, want 1", n)
	}
	if got := fmt.Sprint(db.Facts("p")); got != "[[1 2] [3 4]]" {
		t.Errorf("surviving facts = %s", got)
	}
	if db.RemoveFacts("absent", [][]string{{"1"}}) != 0 {
		t.Error("removal from a missing relation must be a no-op")
	}
}
