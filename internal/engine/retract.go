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
// Trace/PassTimes apply); they differ only in where merged
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
	return ev.finish(ev.retract(removed))
}

// retract runs the three DRed phases for the removed base facts.
func (ev *evaluator) retract(removed *Database) error {
	// Dead sets by slot, seeded with the removed base facts that actually
	// exist. They are Relations: the arena's verified set semantics
	// (Insert reports newness, Contains is exact under fingerprint
	// collisions) are exactly what marking needs. Every fact new in a dead
	// set is new in its delta too.
	var dead []*Relation
	seeded := false
	for _, key := range removed.Keys() {
		cur, ok := ev.out.Lookup(key)
		if !ok {
			continue
		}
		s := ev.slotFor(key, cur.Arity())
		// slotFor may have added a slot; dead covers every slot.
		dead = append(dead, make([]*Relation, len(ev.rels)-len(dead))...)
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
			if insertAt(dead, s, t) {
				ev.appendDelta(ev.delta, s, t)
				seeded = true
			}
		}
	}
	if !seeded {
		return nil // nothing to retract: no pass, no cut barrier
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
		s := plan.headSlot
		if ev.rels[s].Contains(t) && insertAt(dead, s, t) {
			ev.appendDelta(ev.next, s, t)
		}
		return nil
	}
	if err := ev.propagate(0, overDelete); err != nil {
		return err
	}

	// Phase 2 — physically remove the marked facts (and their recorded
	// justifications), rebinding each slot to its rebuilt relation.
	for s, dm := range dead {
		if dm == nil {
			continue
		}
		old := ev.rels[s]
		fresh := NewRelation(old.Arity())
		for ti := 0; ti < old.Len(); ti++ {
			t := old.Tuple(ti)
			if !dm.Contains(t) {
				fresh.Insert(t)
			}
		}
		ev.out.Replace(ev.preds[s].key, fresh)
		ev.rels[s] = fresh
		if ev.prov != nil {
			if m := ev.prov[s]; m != nil {
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
		if dead[plan.headSlot] != nil && ev.active[pi] {
			seed = append(seed, version{pi: pi, occ: -1})
		}
	}
	rederive := func(plan *rulePlan, t Tuple, just []FactRef) error {
		if !dead[plan.headSlot].Contains(t) {
			return nil // still present; nothing to re-derive
		}
		return ev.insertDerived(plan, t, just, true)
	}
	ev.stats.Iterations++
	if err := ev.collectPass(seed, 0, rederive); err != nil {
		return err
	}
	// The seeding pass is this run's startup pass, so the boolean cut
	// applies at its barrier and after every propagation pass below —
	// exactly as in Eval and Update. Without it, boolean rules whose heads
	// survive the retraction were never retired, and both
	// Stats.RulesRetired and the trace's Cut events diverged from a fresh
	// Eval of the post-retraction database.
	ev.applyCut()
	return ev.propagate(0, nil)
}

// insertAt inserts t into the set d[s], creating it on first use, and
// reports whether t was new.
func insertAt(d []*Relation, s int, t Tuple) bool {
	if d[s] == nil {
		d[s] = NewRelation(len(t))
	}
	return d[s].Insert(t)
}
