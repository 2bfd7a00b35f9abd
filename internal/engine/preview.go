package engine

import (
	"context"

	"existdlog/internal/ast"
	"existdlog/internal/trace"
)

// PlanPreview compiles p against edb and returns the join orders the
// runtime planner would choose for every rule's startup version (delta
// occurrence -1), with the live EDB cardinalities that justify them — the
// EXPLAIN view of the planner, without running the fixpoint. Delta
// versions are not previewed: their orders depend on delta sizes that
// only exist during evaluation (run with Options.Trace to see them, per
// pass, in Result.Trace).
func PlanPreview(p *ast.Program, edb *Database) ([]trace.VersionOrder, error) {
	ev, err := newEvaluator(context.Background(), p, edb, Options{}, nil)
	if err != nil {
		return nil, err
	}
	var orders []trace.VersionOrder
	for pi, plan := range ev.plans {
		v := version{pi: pi, occ: -1, vp: ev.computePlan(plan, -1), empty: ev.emptyJoin(plan, -1)}
		orders = append(orders, ev.versionOrder(plan, v))
	}
	return orders, nil
}
