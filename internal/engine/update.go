package engine

import (
	"context"

	"existdlog/internal/ast"
	"existdlog/internal/ierr"
)

// Update extends a previous evaluation result with newly added base facts
// and brings the derived relations up to date incrementally: the
// semi-naive delta loop is seeded with just the additions, so unaffected
// parts of the fixpoint are never re-derived (view maintenance for
// monotone programs).
//
// Restrictions: added may only contain facts for base (non-derived)
// predicates, and the program must be positive — fact insertion under
// negation can retract derived facts, which requires deletion propagation
// (DRed) that this engine does not implement; Update returns an error in
// both cases, and callers should fall back to a full Eval.
//
// prev must come from an Eval (or Update) of the same program with the
// same options; provenance continuity is preserved when TrackProvenance
// was set there.
//
// The delta passes run through the same pass executor as Eval's: rule
// versions read the relation state frozen at the pass barrier and their
// derivations merge at its end, the planner orders their joins, and
// Trace and PassTimes mean what they mean there.
func Update(p *ast.Program, prev *Result, added *Database, opt Options) (*Result, error) {
	return UpdateContext(context.Background(), p, prev, added, opt)
}

// UpdateContext is Update under a context, with the same cancellation
// points and partial-result semantics as EvalContext: an abort returns the
// soundly maintained prefix with Result.Partial set.
func UpdateContext(ctx context.Context, p *ast.Program, prev *Result, added *Database, opt Options) (res *Result, err error) {
	defer ierr.Rescue(&err)
	ev, err := newEvaluator(ctx, p, prev.DB, opt, &maintenance{delta: added, prov: prev.prov, noun: "update", verb: "Update cannot add"})
	if err != nil {
		return nil, err
	}
	return ev.finish(ev.update(added))
}

// update seeds the deltas with the genuinely new tuples of added, merged
// into the full relations, and runs the delta loop.
func (ev *evaluator) update(added *Database) error {
	for _, key := range added.Keys() {
		rel, _ := added.Lookup(key)
		s := ev.slotFor(key, rel.Arity())
		for _, row := range added.Facts(key) {
			t := make(Tuple, len(row))
			for i, name := range row {
				t[i] = ev.out.Syms.Intern(name)
			}
			if ev.rels[s].Insert(t) {
				ev.appendDelta(ev.delta, s, t)
			}
		}
	}
	// Delta loop only — no startup pass: everything derivable without the
	// additions is already in prev. Positive programs have one stratum.
	return ev.propagate(0, nil)
}
