//go:build failpoint

package engine

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"
	"time"

	"existdlog/internal/ast"
	"existdlog/internal/failpoint"
	"existdlog/internal/ierr"
	"existdlog/internal/parser"
)

// The fault suite evaluates this transitive closure over a long chain: it
// runs enough passes, versions, and inserts that every failpoint site is
// reached.
const faultProgram = `
t(X,Y) :- e(X,Y).
t(X,Z) :- t(X,Y), e(Y,Z).
?- t(X,Y).
`

func faultDB(n int) *Database {
	db := NewDatabase()
	for i := 0; i < n; i++ {
		db.Add("e", fmt.Sprint(i), fmt.Sprint(i+1))
	}
	return db
}

// faultOp is one engine entry point driven by the fault suite. Whatever it
// maintains was evaluated before any failpoint is armed, so the armed site
// is reached by the operation under test only.
type faultOp struct {
	name string
	run  func(opt Options) (*Result, error)
	// sound says an aborted run's database is a subset of the true
	// fixpoint holding before+Stats.FactsDerived facts. It is for Eval and
	// Update; an aborted Retract may over-approximate (see RetractContext).
	sound  bool
	before int
}

// faultOps builds the three operations over variations of the 60-edge
// chain. Update bridges a gap at 30→31, so the new edge propagates for
// some thirty passes; Retract removes that edge from a chain that also has
// a 29→31 bypass, so over-deletion marks every fact crossing it and
// re-derivation puts most of them back — reaching the insert site too.
func faultOps(t *testing.T, p *ast.Program) []faultOp {
	t.Helper()
	chain := faultDB(60)
	gap := faultDB(60)
	gap.RemoveFacts("e", [][]string{{"30", "31"}})
	bypass := faultDB(60)
	bypass.Add("e", "29", "31")
	bridge := NewDatabase()
	bridge.Add("e", "30", "31")
	evalOf := func(db *Database) *Result {
		res, err := Eval(p, db, Options{})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	gapped, bypassed := evalOf(gap), evalOf(bypass)
	ctx := context.Background()
	return []faultOp{
		{name: "eval", sound: true, before: chain.TotalFacts(),
			run: func(opt Options) (*Result, error) { return EvalContext(ctx, p, chain, opt) }},
		{name: "update", sound: true, before: gapped.DB.TotalFacts() + 1,
			run: func(opt Options) (*Result, error) { return UpdateContext(ctx, p, gapped, bridge, opt) }},
		{name: "retract",
			run: func(opt Options) (*Result, error) { return RetractContext(ctx, p, bypassed, bridge, opt) }},
	}
}

// faultSites lists the engine's failpoint sites. Eval, Update and
// Retract run on the same pass executor, so each reaches all of them.
var faultSites = []string{FPPass, FPMerge, FPInsert, FPVersion}

// forEachFaultSite runs f once per (operation, site) as a subtest named
// op/site.
func forEachFaultSite(t *testing.T, p *ast.Program, f func(t *testing.T, op faultOp, site string)) {
	for _, op := range faultOps(t, p) {
		for _, site := range faultSites {
			t.Run(op.name+"/"+strings.TrimPrefix(site, "engine/"), func(t *testing.T) {
				f(t, op, site)
			})
		}
	}
}

// TestInjectedErrorPerSite arms each engine failpoint in turn with a
// distinctive error and checks the contract at every site, for Eval, Update
// and Retract: the injected error surfaces (exactly that error, wrapped at
// most), the result is partial — and sound, except for Retract — shutdown
// is clean, and no goroutines leak.
func TestInjectedErrorPerSite(t *testing.T) {
	p, err := parser.ParseProgram(faultProgram)
	if err != nil {
		t.Fatal(err)
	}
	full, err := Eval(p, faultDB(60), Options{})
	if err != nil {
		t.Fatal(err)
	}
	fullRel, _ := full.DB.Lookup("t")
	forEachFaultSite(t, p, func(t *testing.T, op faultOp, site string) {
		defer checkNoLeakedGoroutines(t)()
		defer failpoint.Reset()
		boom := fmt.Errorf("boom at %s", site)
		// Fire on a later hit so some sound work lands first.
		failpoint.EnableError(site, boom, 3)
		res, err := op.run(Options{})
		if failpoint.Hits(site) == 0 {
			t.Fatalf("site %s was never reached", site)
		}
		if !errors.Is(err, boom) {
			t.Fatalf("err = %v, want the injected %v", err, boom)
		}
		if res == nil || !res.Partial || res.Incomplete == "" {
			t.Fatalf("want partial result, got %+v", res)
		}
		if !op.sound {
			return
		}
		// Soundness: every partial fact is in the true fixpoint.
		if rel, ok := res.DB.Lookup("t"); ok {
			for _, tuple := range rel.Tuples() {
				row := res.RowStrings(tuple)
				want := make(Tuple, len(row))
				for i, name := range row {
					id, ok := full.DB.Syms.Lookup(name)
					if !ok {
						t.Fatalf("partial fact t%v uses unknown constant", row)
					}
					want[i] = id
				}
				if !fullRel.Contains(want) {
					t.Fatalf("partial fact t%v is not in the true fixpoint", row)
				}
			}
		}
		if got := res.DB.TotalFacts() - op.before; got != res.Stats.FactsDerived {
			t.Fatalf("Stats.FactsDerived = %d but partial DB holds %d derived facts",
				res.Stats.FactsDerived, got)
		}
	})
}

// TestErrorOnEveryHitSingleSurface floods the version site — the error
// fires on every rule version — and pins that exactly one error comes back
// (the first in version order), with a clean drain.
func TestErrorOnEveryHitSingleSurface(t *testing.T) {
	defer checkNoLeakedGoroutines(t)()
	defer failpoint.Reset()
	p, err := parser.ParseProgram(faultProgram)
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("every version fails")
	failpoint.EnableError(FPVersion, boom, 1)
	res, err := EvalContext(context.Background(), p, faultDB(60), Options{})
	if !errors.Is(err, boom) {
		t.Fatalf("err = %v, want injected error", err)
	}
	if res == nil || !res.Partial {
		t.Fatalf("want partial result, got %+v", res)
	}
	if n := failpoint.Hits(FPVersion); n == 0 {
		t.Fatal("version site never hit")
	}
}

// TestWorkerPanicBecomesInternalError injects a panic into rule-version
// evaluation during Eval, Update and Retract: the bulkhead must catch it,
// convert it to a stack-carrying *ierr.InternalError, and return a partial
// result — never crash the process.
func TestWorkerPanicBecomesInternalError(t *testing.T) {
	p, err := parser.ParseProgram(faultProgram)
	if err != nil {
		t.Fatal(err)
	}
	for _, op := range faultOps(t, p) {
		t.Run(op.name, func(t *testing.T) {
			defer checkNoLeakedGoroutines(t)()
			defer failpoint.Reset()
			failpoint.EnablePanic(FPVersion, 2)
			res, err := op.run(Options{})
			if err == nil {
				t.Fatal("injected panic did not surface")
			}
			var ie *ierr.InternalError
			if !errors.As(err, &ie) {
				t.Fatalf("err = %v (%T), want *ierr.InternalError", err, err)
			}
			if !strings.Contains(fmt.Sprint(ie.Recovered), "injected panic") {
				t.Fatalf("recovered value %v does not name the injection", ie.Recovered)
			}
			if len(ie.Stack) == 0 {
				t.Fatal("internal error carries no stack")
			}
			if res == nil || !res.Partial {
				t.Fatalf("want partial result, got %+v", res)
			}
		})
	}
}

// TestBoundaryRescueCatchesPanic: a panic outside the version bulkhead
// (here: the pass barrier) is recovered at the API boundary into a
// *ierr.InternalError rather than escaping to the caller.
func TestBoundaryRescueCatchesPanic(t *testing.T) {
	defer checkNoLeakedGoroutines(t)()
	defer failpoint.Reset()
	p, err := parser.ParseProgram(faultProgram)
	if err != nil {
		t.Fatal(err)
	}
	failpoint.EnablePanic(FPPass, 2)
	_, err = EvalContext(context.Background(), p, faultDB(40), Options{})
	var ie *ierr.InternalError
	if !errors.As(err, &ie) {
		t.Fatalf("err = %v (%T), want *ierr.InternalError", err, err)
	}
	if len(ie.Stack) == 0 {
		t.Fatal("internal error carries no stack")
	}
}

// TestDelayedVersionHitsDeadline slows every rule version down and runs
// under a deadline: the injected latency must not defeat cancellation —
// the pass stops and ErrDeadline surfaces.
func TestDelayedVersionHitsDeadline(t *testing.T) {
	defer checkNoLeakedGoroutines(t)()
	defer failpoint.Reset()
	p, err := parser.ParseProgram(faultProgram)
	if err != nil {
		t.Fatal(err)
	}
	failpoint.EnableDelay(FPVersion, 10*time.Millisecond, 1)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
	defer cancel()
	start := time.Now()
	res, err := EvalContext(ctx, p, faultDB(120), Options{})
	if !errors.Is(err, ErrDeadline) {
		t.Fatalf("err = %v, want ErrDeadline", err)
	}
	// Bound is generous: the deadline plus one in-flight delayed version
	// plus scheduling slack.
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("drain after deadline took %v", elapsed)
	}
	if res == nil || !res.Partial {
		t.Fatalf("want partial result, got %+v", res)
	}
}
