// Package prepare turns a program and one goal into the program that
// answers it, and evaluates that program: the paper's optimizer, the
// compile-time emptiness check, then Theorem 3.3's seeded rewrite of a
// bound chain goal. `existdlog run`, `existdlog explain` and the server's
// /query all prepare their goals here, so the command line evaluates
// exactly what serving does.
package prepare

import (
	"context"
	"fmt"
	"sync/atomic"

	"existdlog"
	"existdlog/internal/ast"
	"existdlog/internal/engine"
	"existdlog/internal/grammar"
	"existdlog/internal/trace"
)

// Chain is the Rewrite tag of a goal served by the seeded Theorem 3.3
// program.
const Chain = "chain"

// Prepared is one goal's ready-to-evaluate program. It depends on the
// goal's binding pattern only, never on the values of its constants, so
// one Prepared serves every goal of that pattern. It is safe for
// concurrent use: its program is immutable, and the one thing it learns
// from its runs, the relation sizes the last complete one ended with, is
// swapped atomically.
type Prepared struct {
	// Program is the program Eval runs. Its Query selects the answers.
	// Without the chain rewrite it carries the constants of the goal
	// Prepare was given, and Eval binds each request's own constants in
	// their place.
	Program *ast.Program
	// constCol is the answer shape under the chain rewrite: the column of
	// every answer that holds the goal's constant. Program.Query is then
	// the automaton's unary answer relation, holding each answer's other
	// column, and Eval writes the request's constant into this one
	// (engine.AnswerTable.Widen) instead of deriving it. -1 without the
	// rewrite: Program.Query's rows are the answers themselves.
	constCol int
	// Goal is the goal reported to users: the optimizer's goal, which
	// differs from Program.Query only under the chain rewrite.
	Goal ast.Atom
	// Empty is set when the optimizer proved the answer empty: callers
	// answer without calling Eval.
	Empty bool
	// Rewrite names the rewrite applied after the optimizer: Chain, or ""
	// for none.
	Rewrite string
	// Explain is the optimizer's stage-by-stage report, plus a
	// "chain-rewrite" stage when that rewrite applies; nil when the
	// optimizer did not run.
	Explain *trace.Explain
	// sizes holds the relation row counts, by relation slot, of the last
	// complete Eval (engine.SizeHints); the next Eval sizes its derived
	// storage from them. Nil until a run completes.
	sizes atomic.Pointer[[]int]
}

// Prepare builds the program that answers goal over base's rules. With
// opts nil the program is evaluated as written (`-noopt`). Otherwise
// Optimize runs with *opts; unless it proves the answer empty, a goal
// binding exactly one end of a linear chain program is then rewritten
// into the monadic program seeded from grammar.SeedPred (Theorem 3.3),
// which derives the nodes reachable from the constant instead of the
// whole binary relation the constant would select from. base is not
// mutated.
func Prepare(base *ast.Program, goal ast.Atom, opts *existdlog.Options) (*Prepared, error) {
	prog := base.Clone()
	prog.Query = goal
	if opts == nil {
		return &Prepared{Program: prog, Goal: goal, constCol: -1}, nil
	}
	res, err := existdlog.Optimize(prog, *opts)
	if err != nil {
		return nil, err
	}
	p := &Prepared{Program: res.Program, Goal: res.Program.Query, constCol: -1, Empty: res.EmptyAnswer, Explain: res.Explain}
	if p.Empty {
		return p, nil
	}
	if mono, col, ok := grammar.SeedChainGoal(res.Program); ok {
		p.Explain.Stages = append(p.Explain.Stages, trace.Stage{
			Name:        "chain-rewrite",
			RulesBefore: len(res.Program.Rules),
			RulesAfter:  len(mono.Rules),
			Notes: []string{
				fmt.Sprintf("reachability from the constant of %s, read from %s (Theorem 3.3)", p.Goal, grammar.SeedPred),
				fmt.Sprintf("answered from %s: %s is written into argument %d of every answer, not derived", mono.Query, p.Goal.Args[col], col+1),
			},
			Program: mono.String(),
		})
		p.Program, p.Rewrite, p.constCol = mono, Chain, col
	}
	return p, nil
}

// Facts returns the facts p's program runs over for goal: edb itself, or
// under the chain rewrite a copy-on-write overlay of edb plus the one row
// SeedPred(k), k being goal's constant.
func (p *Prepared) Facts(edb *engine.Database, goal ast.Atom) *engine.Database {
	if p.constCol < 0 {
		return edb
	}
	edb = edb.Clone()
	edb.Add(grammar.SeedPred, goal.Args[p.constCol].Name)
	return edb
}

// answers applies p's answer shape: it selects goal's answers from res,
// Program.Query bound to goal's constants, and under the chain rewrite
// writes goal's constant into column constCol of each.
func (p *Prepared) answers(res *engine.Result, goal ast.Atom) engine.AnswerTable {
	if p.constCol < 0 {
		return res.AnswerRows(p.Program.Query.BindConstants(goal))
	}
	return res.AnswerRows(p.Program.Query).Widen(p.constCol, goal.Args[p.constCol].Name)
}

// Eval evaluates p's program over edb for goal, a goal of the binding
// pattern p was prepared for, and returns the result with goal's answers.
// The derived relations start at the sizes the last complete run ended
// with, which changes capacity only. A partial result (a deadline, a limit) comes back
// with its sound answers and the error; any other failure returns no
// answers.
func (p *Prepared) Eval(ctx context.Context, edb *engine.Database, goal ast.Atom, opts engine.Options) (*engine.Result, engine.AnswerTable, error) {
	if sizes := p.sizes.Load(); sizes != nil {
		opts = engine.WithSizeHints(opts, *sizes)
	}
	res, err := engine.EvalContext(ctx, p.Program, p.Facts(edb, goal), opts)
	if err != nil && (res == nil || !res.Partial) {
		return res, engine.AnswerTable{}, err
	}
	if sizes := engine.SizeHints(res); sizes != nil {
		p.sizes.Store(&sizes)
	}
	return res, p.answers(res, goal), err
}
