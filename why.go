package existdlog

import (
	"errors"
	"fmt"
	"strings"

	"existdlog/internal/engine"
	"existdlog/internal/parser"
	"existdlog/internal/trace"
)

// Observability types, aliased from internal/trace. Every evaluation fills
// EvalResult.Trace with a TraceMetrics (EvalOptions.Trace adds the pass
// timeline, with the planner's join orders); Optimize always fills
// OptimizeResult.Explain with an ExplainReport.
type (
	// TraceMetrics is a full evaluation trace: per-rule counters, the
	// delta-size histogram and, under EvalOptions.Trace, the pass
	// timeline, deterministic for a program and database.
	TraceMetrics = trace.Metrics
	// RuleStats are one rule's evaluation counters.
	RuleStats = trace.RuleStats
	// PassStats describe one fixpoint pass.
	PassStats = trace.PassStats
	// ExplainReport is the optimizer's stage-by-stage report.
	ExplainReport = trace.Explain
	// FactRef names a fact (relation key plus interned tuple) inside a
	// derivation tree.
	FactRef = engine.FactRef
)

// ErrNotDerivable is returned (wrapped) by Why when the queried fact is
// well-formed and ground but absent from the result.
var ErrNotDerivable = errors.New("fact is not in the result")

// Why answers "why is this fact in the result?": it parses a ground fact
// written in source syntax — "tc(a,b)", adorned keys as "a@nd(x)" — and
// returns its derivation tree from res, which must come from an
// evaluation with EvalOptions.TrackProvenance set. The tree's leaves are
// base (EDB) facts (Rule = -1); every internal node carries the index of
// the rule instance that first produced it.
func Why(res *EvalResult, fact string) (*Tree, error) {
	src := strings.TrimSuffix(strings.TrimSpace(fact), ".")
	r, err := parser.Parse("?- " + src + ".")
	if err != nil {
		return nil, fmt.Errorf("why: bad fact %q: %w", fact, err)
	}
	goal := r.Program.Query
	if !goal.IsGround() {
		return nil, fmt.Errorf("why: fact must be ground: %s", src)
	}
	row := make([]string, len(goal.Args))
	for i, t := range goal.Args {
		row[i] = t.Name
	}
	tree, ok := res.Derivation(goal.Key(), row)
	if !ok {
		return nil, fmt.Errorf("why: %s: %w", src, ErrNotDerivable)
	}
	return tree, nil
}

// FormatTree renders a derivation tree as indented text, one fact per
// line, annotated with the producing rule (prog's rule list indexes the
// tree's Rule fields) or "[base fact]" at the leaves.
func FormatTree(t *Tree, prog *Program, res *EvalResult) string {
	var sb strings.Builder
	formatTree(&sb, t, prog, res, 0)
	return sb.String()
}

func formatTree(sb *strings.Builder, t *Tree, prog *Program, res *EvalResult, depth int) {
	indent := strings.Repeat("  ", depth)
	label := t.Fact.Key
	if len(t.Fact.Row) > 0 {
		label = fmt.Sprintf("%s(%s)", t.Fact.Key, strings.Join(res.RowStrings(t.Fact.Row), ","))
	}
	if t.Rule >= 0 && t.Rule < len(prog.Rules) {
		fmt.Fprintf(sb, "%s%s   [rule %d: %s]\n", indent, label, t.Rule+1, prog.Rules[t.Rule])
	} else {
		fmt.Fprintf(sb, "%s%s   [base fact]\n", indent, label)
	}
	for _, c := range t.Children {
		formatTree(sb, c, prog, res, depth+1)
	}
}
