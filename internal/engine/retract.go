package engine

import (
	"context"

	"existdlog/internal/ast"
	"existdlog/internal/ierr"
)

// Retract removes base facts from a previous evaluation result and brings
// the derived relations up to date with the delete-and-rederive (DRed)
// strategy:
//
//  1. over-delete: every derived fact with a derivation using a deleted
//     fact is marked, semi-naively, against the pre-deletion relations;
//  2. the marked facts are removed;
//  3. re-derive: marked facts with alternative derivations from the
//     surviving facts are put back, and the insertions propagate
//     semi-naively.
//
// Positive programs only (negation would need stratified DRed), and
// removed may only name base predicates. prev must come from Eval, Update
// or Retract of the same program.
//
// Phases 1 and 3 are passes of the one pass executor, exactly as in Eval
// and Update (frozen state per pass, merge at the barrier,
// ReorderJoins/Trace/PassTimes apply); they differ only in where merged
// derivations go. Phase 3's seeding
// pass is this run's startup pass: it counts one iteration, one trace pass
// record and one PassTimes entry, and the boolean cut applies at its
// barrier.
func Retract(p *ast.Program, prev *Result, removed *Database, opt Options) (*Result, error) {
	return RetractContext(context.Background(), p, prev, removed, opt)
}

// RetractContext is Retract under a context, checked at every pass barrier
// and mid-pass like EvalContext. Caution on aborts: unlike EvalContext, a
// Result with Partial set here can OVER-approximate the post-retraction
// fixpoint — DRed may not have finished propagating deletions — so a partial
// retract result is diagnostic, not a sound database; callers needing
// soundness should re-evaluate from scratch.
func RetractContext(ctx context.Context, p *ast.Program, prev *Result, removed *Database, opt Options) (res *Result, err error) {
	defer ierr.Rescue(&err)
	ev, err := newEvaluator(ctx, p, prev.DB, opt, &maintenance{delta: removed, prov: prev.prov, noun: "retraction", verb: "Retract cannot remove"})
	if err != nil {
		return nil, err
	}

	// Dead sets, seeded with the removed base facts that actually exist.
	// They are Relations: the arena's verified set semantics (Insert
	// reports newness, Contains is exact under fingerprint collisions)
	// are exactly what marking needs.
	dead := map[string]*Relation{}
	for _, key := range removed.Keys() {
		cur, ok := ev.out.Lookup(key)
		if !ok {
			continue
		}
		for _, row := range removed.Facts(key) {
			t := make(Tuple, len(row))
			miss := false
			for i, name := range row {
				id, ok := ev.out.Syms.Lookup(name)
				if !ok {
					miss = true
					break
				}
				t[i] = id
			}
			if miss || !cur.Contains(t) {
				continue
			}
			if addTuple(dead, key, t) {
				addTuple(ev.deltas, key, t)
			}
		}
	}
	if len(dead) == 0 {
		return ev.finish(nil) // nothing to retract: no pass, no cut barrier
	}

	// Phase 1 — over-delete, semi-naively against PRE-deletion relations:
	// a head is marked if some rule instance uses a marked fact. Nothing is
	// inserted, so the relations stay frozen for the whole phase.
	overDelete := func(plan *rulePlan, t Tuple, _ []FactRef) error {
		ev.stats.Derivations++
		// Over-deletion derivations are attributed to their rule too, so
		// the per-rule partition of Stats.Derivations survives retraction.
		ev.tc.Emit(plan.idx)
		if err := ev.tick(); err != nil {
			return err
		}
		if rel, ok := ev.out.Lookup(plan.headKey); ok && rel.Contains(t) && addTuple(dead, plan.headKey, t) {
			addTuple(ev.next, plan.headKey, t)
		}
		return nil
	}
	if err := ev.propagate(0, overDelete); err != nil {
		return ev.finish(err)
	}

	// Phase 2 — physically remove the marked facts (and their recorded
	// justifications).
	for key, dm := range dead {
		old, ok := ev.out.Lookup(key)
		if !ok {
			continue
		}
		fresh := NewRelation(old.Arity())
		for ti := 0; ti < old.Len(); ti++ {
			t := old.Tuple(ti)
			if !dm.Contains(t) {
				fresh.Insert(t)
			}
		}
		ev.out.Replace(key, fresh)
		if ev.prov != nil {
			if m, ok := ev.prov[key]; ok {
				for ti := 0; ti < dm.Len(); ti++ {
					m.del(dm.Tuple(ti))
				}
			}
		}
	}

	// Phase 3 — re-derive: one startup-shaped pass evaluates the rules
	// whose heads were touched against the surviving facts and keeps the
	// heads that were marked dead (alternative derivations); the
	// re-insertions then propagate semi-naively.
	var seed []version
	for pi, plan := range ev.plans {
		if _, touched := dead[plan.headKey]; touched && ev.active[pi] {
			seed = append(seed, version{pi: pi, occ: -1})
		}
	}
	rederive := func(plan *rulePlan, t Tuple, just []FactRef) error {
		if !dead[plan.headKey].Contains(t) {
			return nil // still present; nothing to re-derive
		}
		return ev.insertDerived(plan, t, just, true)
	}
	ev.stats.Iterations++
	ev.next = make(map[string]*Relation)
	if err := ev.runPass(seed, true, 0, rederive); err != nil {
		return ev.finish(err)
	}
	ev.deltas = ev.next
	// The seeding pass is this run's startup pass, so the boolean cut
	// applies at its barrier and after every propagation pass below —
	// exactly as in Eval and Update. Without it, boolean rules whose heads
	// survive the retraction were never retired, and both
	// Stats.RulesRetired and the trace's Cut events diverged from a fresh
	// Eval of the post-retraction database.
	ev.applyCut()
	return ev.finish(ev.propagate(0, nil))
}
