package engine

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"existdlog/internal/parser"
)

// orderedFacts decodes a relation's tuples to constant names in insertion
// order (DB.Facts sorts; here the order itself is under test — insertion
// order is what keeps downstream output byte-identical).
func orderedFacts(res *Result, key string) [][]string {
	rel, ok := res.DB.Lookup(key)
	if !ok {
		return nil
	}
	out := make([][]string, 0, rel.Len())
	for _, t := range rel.Tuples() {
		out = append(out, res.RowStrings(t))
	}
	return out
}

// TestStrategiesAgree is the differential harness of ISSUE 1: hundreds of
// random programs (positive-recursive and stratified-negated), random
// databases, the engine and the naive oracle (naive_test.go), with
// BooleanCut off and on.
// Invariants checked:
//
//   - query answers always equal the no-cut naive reference (the cut may
//     under-compute non-query predicates but never the query);
//   - without the cut, both derive exactly the reference
//     fixpoint, relation by relation, with equal FactsDerived;
//   - SemiNaive with the reference storage mirrored in (refcheck.go) is
//     bit-identical to SemiNaive without it (see below).
func TestStrategiesAgree(t *testing.T) {
	defer checkNoLeakedGoroutines(t)()
	rng := rand.New(rand.NewSource(424242))
	trials := 220
	for trial := 0; trial < trials; trial++ {
		var src string
		if trial%2 == 0 {
			src = randomProgram(rng)
		} else {
			src = randomStratifiedProgram(rng)
		}
		p, err := parser.ParseProgram(src)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		db := NewDatabase()
		n := 3 + rng.Intn(5)
		for i := 0; i < 2*n; i++ {
			db.Add("e", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
			db.Add("f", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
		}

		ref, err := evalNaive(context.Background(), p, db, Options{})
		if err != nil {
			t.Fatalf("trial %d reference: %v\n%s", trial, err, src)
		}
		refAnswers := fmt.Sprint(ref.Answers(p.Query))

		for _, cut := range []bool{false, true} {
			// SemiNaive result per cut setting, kept to compare the
			// mirrored run against bit-for-bit.
			var sn *Result
			for _, s := range evaluators {
				opt := Options{BooleanCut: cut, Trace: true}
				res, err := s.eval(context.Background(), p, db, opt)
				if err != nil {
					t.Fatalf("trial %d %s cut=%v: %v\n%s",
						trial, s.name, cut, err, src)
				}
				if got := fmt.Sprint(res.Answers(p.Query)); got != refAnswers {
					t.Fatalf("trial %d %s cut=%v: answers diverge\ngot: %s\nref: %s\n%s",
						trial, s.name, cut, got, refAnswers, src)
				}
				if !cut {
					// Without retirement both compute the full
					// fixpoint: same relations, same number of new facts.
					if res.Stats.FactsDerived != ref.Stats.FactsDerived {
						t.Fatalf("trial %d %s: FactsDerived %d, reference %d\n%s",
							trial, s.name, res.Stats.FactsDerived, ref.Stats.FactsDerived, src)
					}
					for key := range p.Derived {
						if fmt.Sprint(res.DB.Facts(key)) != fmt.Sprint(ref.DB.Facts(key)) {
							t.Fatalf("trial %d %s: %s diverges from reference\n%s",
								trial, s.name, key, src)
						}
					}
				}
				if s.name == "seminaive" {
					sn = res
				}
			}

			// Re-run SemiNaive with the map-of-strings reference storage
			// mirrored into every relation (refcheck.go verifies
			// newness, order, membership, and probes operation by
			// operation and panics on the first divergence), then
			// assert the mirror-on results are bit-identical to the
			// mirror-off ones — answers, Stats, Trace, and per-relation
			// insertion order. Every 4th trial: the mirror's
			// brute-force Match verification is quadratic.
			if trial%4 == 0 {
				func() {
					refCheckEnabled = true
					defer func() { refCheckEnabled = false }()
					opt := Options{BooleanCut: cut, Trace: true}
					res, err := Eval(p, db, opt)
					if err != nil {
						t.Fatalf("trial %d refcheck cut=%v: %v\n%s",
							trial, cut, err, src)
					}
					if got := fmt.Sprint(res.Answers(p.Query)); got != refAnswers {
						t.Fatalf("trial %d refcheck: answers diverge\ngot: %s\nref: %s\n%s",
							trial, got, refAnswers, src)
					}
					if res.Stats != sn.Stats {
						t.Fatalf("trial %d refcheck: stats diverge\nmirror: %+v\nplain:  %+v\n%s",
							trial, res.Stats, sn.Stats, src)
					}
					if !reflect.DeepEqual(res.Trace, sn.Trace) {
						t.Fatalf("trial %d refcheck: trace diverges\n%s", trial, src)
					}
					for key := range p.Derived {
						a, b := orderedFacts(sn, key), orderedFacts(res, key)
						if fmt.Sprint(a) != fmt.Sprint(b) {
							t.Fatalf("trial %d refcheck: %s insertion order diverges\nplain:  %v\nmirror: %v\n%s",
								trial, key, a, b, src)
						}
					}
				}()
			}
		}
	}
}

// TestReorderJoinsIgnored pins the deprecated Options.ReorderJoins as a
// no-op: on TestStrategiesAgree's generator, an evaluation with the field
// false and one with it true are the same evaluation — equal Stats
// (JoinProbes included), equal Trace (join orders included) and the same
// insertion order in every derived relation.
func TestReorderJoinsIgnored(t *testing.T) {
	rng := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 60; trial++ {
		var src string
		if trial%2 == 0 {
			src = randomProgram(rng)
		} else {
			src = randomStratifiedProgram(rng)
		}
		p := mustParse(t, src)
		db := NewDatabase()
		n := 3 + rng.Intn(5)
		for i := 0; i < 2*n; i++ {
			db.Add("e", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
			db.Add("f", fmt.Sprint(rng.Intn(n)), fmt.Sprint(rng.Intn(n)))
		}
		off, err := Eval(p, db, Options{Trace: true, ReorderJoins: false})
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		on, err := Eval(p, db, Options{Trace: true, ReorderJoins: true})
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		if on.Stats != off.Stats {
			t.Fatalf("trial %d: stats differ\ntrue:  %+v\nfalse: %+v\n%s", trial, on.Stats, off.Stats, src)
		}
		if !reflect.DeepEqual(on.Trace, off.Trace) {
			t.Fatalf("trial %d: traces differ\n%s", trial, src)
		}
		for key := range p.Derived {
			if a, b := orderedFacts(on, key), orderedFacts(off, key); fmt.Sprint(a) != fmt.Sprint(b) {
				t.Fatalf("trial %d: %s insertion order differs\ntrue:  %v\nfalse: %v\n%s", trial, key, a, b, src)
			}
		}
	}
}

// TestFactLimitExactAcrossStrategies pins down MaxFacts/ErrFactLimit
// behavior directly (previously only enforced, never tested): a limit
// equal to the fixpoint size succeeds with FactsDerived exactly at the
// limit, any smaller limit fails with ErrFactLimit — identically for
// the engine and the naive oracle. The merge must reject the overshooting insert, not
// error after the fact.
func TestFactLimitExactAcrossStrategies(t *testing.T) {
	p := mustParse(t, tcSrc)
	db := chainDB(10)
	full, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	limit := full.Stats.FactsDerived // 55: closure of a 10-edge chain
	if limit != 55 {
		t.Fatalf("fixpoint size = %d, want 55", limit)
	}
	for _, s := range evaluators {
		opt := Options{MaxFacts: limit}
		res, err := s.eval(context.Background(), p, db, opt)
		if err != nil {
			t.Fatalf("%s: limit == fixpoint must succeed: %v", s.name, err)
		}
		if res.Stats.FactsDerived != limit {
			t.Errorf("%s: FactsDerived = %d, want exactly %d", s.name, res.Stats.FactsDerived, limit)
		}
		for _, mf := range []int{limit - 1, 10, 1} {
			opt.MaxFacts = mf
			if _, err := s.eval(context.Background(), p, db, opt); err != ErrFactLimit {
				t.Errorf("%s MaxFacts=%d: err = %v, want ErrFactLimit", s.name, mf, err)
			}
		}
	}
}
