package engine

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"testing"

	"existdlog/internal/ierr"
	"existdlog/internal/parser"
	"existdlog/internal/trace"
)

// versionOrders collects every trace.VersionOrder recorded for one rule
// version across all passes, in pass order.
func versionOrders(res *Result, rule, occ int) []trace.VersionOrder {
	var out []trace.VersionOrder
	if res.Trace == nil {
		return out
	}
	for _, p := range res.Trace.Passes {
		for _, o := range p.Orders {
			if o.Rule == rule && o.Occ == occ {
				out = append(out, o)
			}
		}
	}
	return out
}

// TestReorderTieBreakPrefersBase pins the documented tie order of the
// greedy planner: bound-argument count first, then base relations over
// derived ones, then the smaller live relation, then body order.
// The old heuristic skipped the base-over-derived step and jumped
// straight to size, so the derived d (2 live rows) beat the base
// relation (9 rows) on a bound-count tie. Here both candidates have
// exactly one bound argument after the delta literal, so the planner
// must pick base despite its larger size.
func TestReorderTieBreakPrefersBase(t *testing.T) {
	p := mustParse(t, `
g(X,Y) :- e(X,Y).
g(X,Y) :- g(X,Z), e(Z,Y).
d(X,Y) :- seed(X,Y).
q(A,B,C) :- g(A,B), base(A,C), d(A,E).
?- q(A,B,C).
`)
	db := NewDatabase()
	for i := 0; i < 5; i++ {
		db.Add("e", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	for i := 0; i < 9; i++ {
		db.Add("base", fmt.Sprint(i%5), fmt.Sprint(100+i))
	}
	db.Add("seed", "0", "s0")
	db.Add("seed", "1", "s1")
	res, err := Eval(p, db, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	// Rule 3 is q; occurrence 0 is the Δg version. In every pass where it
	// was planned with both g-delta facts and the tie candidates live,
	// base (9 rows, base relation) must precede d (2 rows, derived).
	orders := versionOrders(res, 3, 0)
	if len(orders) == 0 {
		t.Fatal("no order records for the Δg version of q")
	}
	checked := 0
	for _, o := range orders {
		if len(o.Literals) != 3 || o.Literals[0] != "~g" {
			t.Fatalf("Δg version order = %v, want ~g first", o.Literals)
		}
		if o.Sizes[0] == 0 {
			continue // empty delta: skipped version, tie not exercised
		}
		if o.Literals[1] != "base" || o.Literals[2] != "d" {
			t.Fatalf("tie broken wrong: order %v sizes %v — base must beat derived d on a bound-count tie",
				o.Literals, o.Sizes)
		}
		if o.Sizes[1] != 9 || o.Sizes[2] != 2 {
			t.Fatalf("recorded sizes %v, want base=9 d=2", o.Sizes)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no pass exercised the tie (delta always empty?)")
	}
}

// TestRelationForMissingIsInternalError pins what replaced the process-wide
// empty-relation fallback: a literal whose relation slot is bound to no
// relation is an engine bug, which the version's bulkhead reports as an
// *ierr.InternalError naming the relation — and the pass, which only reads
// relations, must not create it.
func TestRelationForMissingIsInternalError(t *testing.T) {
	p := mustParse(t, "q(X) :- e(X), ghost(X).\n?- q(X).\n")
	db := NewDatabase()
	db.Add("e", "a")
	ev, err := newEvaluator(context.Background(), p, db, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	s, ok := ev.slotOf["ghost"]
	if !ok || ev.rels[s] == nil {
		t.Fatal("compile did not materialize the body relation ghost")
	}
	vp := ev.computePlan(ev.plans[0], -1)
	ev.rels[s] = nil // the invariant violation under test
	_, err = ev.runVersion(ev.plans[0], version{occ: -1, vp: vp}, emitBuf{})
	var ie *ierr.InternalError
	if !errors.As(err, &ie) || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("err = %v (%T), want an *ierr.InternalError naming ghost", err, err)
	}
	if ev.rels[s] != nil {
		t.Fatal("the failed read created the missing relation")
	}
}

// TestPlannerOrdersFlipAcrossPasses is the live-replanning proof: the
// Δg version of q ties h (static, 12 rows) against h2 (a growing
// closure) on bound arguments, so the greedy order follows whichever is
// smaller THIS pass — h2 first while |h2| < 12, h first once the
// closure outgrows it. The test requires both orders to appear across
// passes of one evaluation, and the replanned answers to match the
// body-order oracle's.
func TestPlannerOrdersFlipAcrossPasses(t *testing.T) {
	p := mustParse(t, flipSrc)
	db := flipDB()
	opts := Options{Trace: true}
	sn, err := Eval(p, db, opts)
	if err != nil {
		t.Fatal(err)
	}
	// q is rule 5; occurrence 0 is Δg. Collect the distinct (h, h2)
	// relative orders chosen across non-skipped passes.
	seen := map[string]bool{}
	for _, o := range versionOrders(sn, 5, 0) {
		if o.Skipped || o.Sizes[0] == 0 {
			continue
		}
		seen[fmt.Sprint(o.Literals)] = true
	}
	if len(seen) < 2 {
		t.Fatalf("planner never changed the Δg order across passes: %v", seen)
	}

	// Body-order answers are identical after the canonical Answers sort.
	naive, err := evalNaive(context.Background(), p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(sn.Answers(p.Query)) != fmt.Sprint(naive.Answers(p.Query)) {
		t.Fatal("planner changed the answers")
	}
}

// flipSrc and flipDB are TestPlannerOrdersFlipAcrossPasses' program and
// database: the Δg version of q (rule 5, occurrence 0) changes its join
// order once, mid-evaluation.
const flipSrc = `
g(X,Y) :- e(X,Y).
g(X,Y) :- g(X,Z), e(Z,Y).
h(X,Y) :- f(X,Y).
h2(X,Y) :- f2(X,Y).
h2(X,Z) :- h2(X,Y), f2(Y,Z).
q(B,D,E) :- g(B,C), h(C,D), h2(C,E).
?- q(B,D,E).
`

func flipDB() *Database {
	db := NewDatabase()
	for i := 0; i < 12; i++ {
		db.Add("e", fmt.Sprint(i), fmt.Sprint(i+1)) // long chain: Δg lives ~12 passes
		db.Add("f", fmt.Sprint(i), fmt.Sprint(200+i))
	}
	for i := 0; i < 8; i++ {
		db.Add("f2", fmt.Sprint(i), fmt.Sprint(i+1)) // closure grows 8,15,21,... past |h|=12
	}
	return db
}

// TestPlanMemoMatchesFreshPlans runs the order-flipping program with the
// reference check on, so every plan the memo returns — including hits on
// a version whose memo holds two orders — is compared with a plan built
// from scratch (verifyPlan panics on a difference, which Eval returns as
// an internal error), and the result must equal the unchecked run's,
// trace included.
func TestPlanMemoMatchesFreshPlans(t *testing.T) {
	p := mustParse(t, flipSrc)
	opts := Options{Trace: true}
	plain, err := Eval(p, flipDB(), opts)
	if err != nil {
		t.Fatal(err)
	}
	refCheckEnabled = true
	defer func() { refCheckEnabled = false }()
	checked, err := Eval(p, flipDB(), opts)
	if err != nil {
		t.Fatal(err)
	}
	if checked.Stats != plain.Stats || !reflect.DeepEqual(checked.Trace, plain.Trace) {
		t.Fatalf("checked run diverges: stats %+v, unchecked %+v", checked.Stats, plain.Stats)
	}
}

// TestPlannerEmptyJoinSkip: a rule version whose join provably derives
// nothing this pass (some positive literal reads an empty relation) is
// skipped before any probe. The never-satisfiable rule must contribute
// zero probes, a skipped order record in the trace, and the answers the
// body-order oracle derives.
func TestPlannerEmptyJoinSkip(t *testing.T) {
	p := mustParse(t, `
a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
dead(X,Y) :- a(X,Y), nothing(X).
?- a(X,Y).
`)
	db := chainDB(6)
	on, err := Eval(p, db, Options{Trace: true})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := evalNaive(context.Background(), p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(on.Answers(p.Query)) != fmt.Sprint(naive.Answers(p.Query)) {
		t.Fatal("empty-join skip changed the answers")
	}
	if on.DB.Count("dead") != 0 {
		t.Fatal("dead must be empty")
	}
	// The dead rule (index 2) must have recorded skipped plans and spent
	// zero probes; nothing() is empty in every pass.
	var skips int
	for _, o := range append(versionOrders(on, 2, -1), versionOrders(on, 2, 0)...) {
		if !o.Skipped {
			t.Fatalf("dead-rule order not marked skipped: %+v", o)
		}
		skips++
	}
	if skips == 0 {
		t.Fatal("no skip records for the dead rule")
	}
	if pr := on.Trace.Rules[2].JoinProbes; pr != 0 {
		t.Errorf("dead rule spent %d probes despite empty-join skip", pr)
	}
}

// TestPlannerProbesMonotone evaluates every committed example program
// with the planner and with the body-order oracle (evalNaive), and
// requires the answers and every derived relation to agree exactly.
func TestPlannerProbesMonotone(t *testing.T) {
	var files []string
	for _, dir := range []string{
		filepath.Join("..", "..", "cmd", "existdlog", "testdata"),
		filepath.Join("..", "..", "testdata", "corpus"),
	} {
		fs, err := filepath.Glob(filepath.Join(dir, "*.dl"))
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, fs...)
	}
	if len(files) == 0 {
		t.Skip("no committed .dl programs found")
	}
	sort.Strings(files)
	for _, file := range files {
		src, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		res, err := parser.Parse(string(src))
		if err != nil {
			continue // non-program fixtures
		}
		db := NewDatabase()
		if err := db.AddAtoms(res.Facts); err != nil {
			continue
		}
		p := res.Program
		naive, err := evalNaive(context.Background(), p, db, Options{})
		if err != nil {
			continue // programs that error do so under any order
		}
		got, err := Eval(p, db, Options{})
		if err != nil {
			t.Fatalf("%s: the planner errored where body order succeeded: %v", file, err)
		}
		if fmt.Sprint(got.Answers(p.Query)) != fmt.Sprint(naive.Answers(p.Query)) {
			t.Errorf("%s: the planner changed the answers", file)
		}
		for key := range p.Derived {
			if fmt.Sprint(got.DB.Facts(key)) != fmt.Sprint(naive.DB.Facts(key)) {
				t.Errorf("%s: the planner changed %s", file, key)
			}
		}
	}
}

// TestPlanPreviewReportsStartupOrders covers the EXPLAIN entry point:
// PlanPreview returns one startup-pass order per rule, annotated with
// the live EDB cardinalities, without running the fixpoint.
func TestPlanPreviewReportsStartupOrders(t *testing.T) {
	p := mustParse(t, `
ans(X,W) :- big(Y,Z), sel(X,Y), big(Z,W).
?- ans(X,W).
`)
	db := NewDatabase()
	for i := 0; i < 60; i++ {
		db.Add("big", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	db.Add("sel", "s", "3")
	orders, err := PlanPreview(p, db)
	if err != nil {
		t.Fatal(err)
	}
	if len(orders) != 1 {
		t.Fatalf("got %d orders, want 1", len(orders))
	}
	o := orders[0]
	if o.Literals[0] != "sel" {
		t.Fatalf("startup order %v (sizes %v): the 1-row sel must come first", o.Literals, o.Sizes)
	}
	if o.Sizes[0] != 1 {
		t.Errorf("sel size annotated %d, want 1", o.Sizes[0])
	}
	// The two big probes run with a bound join column each.
	if o.Bound[1] == 0 || o.Bound[2] == 0 {
		t.Errorf("bound-column counts %v, want both big probes indexed", o.Bound)
	}
}
