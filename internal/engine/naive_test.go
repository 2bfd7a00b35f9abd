package engine

import (
	"context"

	"existdlog/internal/ast"
	"existdlog/internal/ierr"
	"existdlog/internal/trace"
)

// evalNaive is the in-package reference for EvalContext's delta logic and
// barrier semantics: it re-evaluates every active rule against the full
// relations each iteration, inserting as it goes, until an iteration
// derives nothing. The differential tests (diff_test.go, fuzz_test.go,
// negation_test.go) compare the engine against it. It shares
// newEvaluator, evalRule, insertDerived, applyCut and finish with the
// engine but deliberately keeps its own pass loop instead of runPass, and
// joins every rule in body order (textualPlan) instead of asking the
// planner (computePlan) — a reference that ran on the executor or the
// ordering it checks would guard nothing. The
// storage underneath has its own oracle (refcheck.go), the served answers
// another (benchmark/gen/oracle.go); DESIGN.md §6 lists the three seams.
func evalNaive(ctx context.Context, p *ast.Program, edb *Database, opt Options) (res *Result, err error) {
	defer ierr.Rescue(&err)
	ev, err := newEvaluator(ctx, p, edb, opt, nil)
	if err != nil {
		return nil, err
	}
	textual := make([]*versionPlan, len(ev.plans))
	for pi, plan := range ev.plans {
		textual[pi] = textualPlan(plan)
	}
	for level := 0; level <= ev.maxStrat; level++ {
		if err := ev.runNaiveStratum(level, textual); err != nil {
			return ev.finish(err)
		}
	}
	return ev.finish(nil)
}

func (ev *evaluator) runNaiveStratum(level int, textual []*versionPlan) error {
	for {
		// Naive passes have no runPass barrier, so the iteration head is
		// their cancellation point (mid-pass ticks cover the rest).
		if err := ev.checkCtx(); err != nil {
			return err
		}
		ev.stats.Iterations++
		if ev.stats.Iterations > ev.opt.MaxIterations {
			return ErrIterationLimit
		}
		before := ev.stats.FactsDerived
		versions := 0
		var evalErr error
		for pi, plan := range ev.plans {
			if !ev.active[pi] || plan.stratum != level {
				continue
			}
			versions++
			// Naive iterations neither replan nor skip empty versions —
			// the oracle is an answer-set cross-check, not a bit-identical
			// one.
			evalErr = ev.evalRule(plan, -1, textual[pi], func(t Tuple, just []FactRef) error {
				return ev.insertDerived(plan, t, just, false)
			})
			if evalErr != nil {
				break
			}
		}
		// Naive iterations are their own barriers: a traced run records
		// the pass (aborted iterations included) before the cut.
		if ev.opt.Trace {
			ev.tc.Pass(trace.PassStats{
				Pass: ev.stats.Iterations, Stratum: level, Versions: versions,
				Facts: ev.stats.FactsDerived - before,
			})
			ev.markPass()
		}
		if evalErr != nil {
			return evalErr
		}
		ev.applyCut()
		if ev.stats.FactsDerived == before {
			return nil
		}
	}
}

// textualPlan is the join plan that evaluates plan's body in the order
// compile left it (positive literals as written, negated ones last). The
// order does not depend on the data, so one plan serves every iteration.
func textualPlan(plan *rulePlan) *versionPlan {
	order := make([]int, len(plan.body))
	for li := range order {
		order[li] = li
	}
	return newVersionPlan(plan, order, make([]bool, plan.slots))
}
