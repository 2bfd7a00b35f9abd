// Package existdlog is an optimizer and bottom-up evaluator for
// existential Datalog queries, reproducing Ramakrishnan, Beeri and
// Krishnamurthy, "Optimizing Existential Datalog Queries" (PODS 1988).
//
// An existential query is one with don't-care argument positions — the
// caller needs only the existence of a witness, not its value (for
// example, "which nodes can reach *some* node": query(X) :- a(X,Y) keeps
// only X). The library detects such positions syntactically (adornment,
// Section 2 of the paper), makes disconnected existential subqueries
// explicit as boolean predicates that the evaluator retires at runtime
// once proven — a bottom-up cut (Section 3.1) — pushes the projections
// through recursion, shrinking predicate arities (Section 3.2), and
// discards rules made redundant by the projections using summary-based
// sufficient conditions for uniform query equivalence and Sagiv's
// uniform-equivalence test (Sections 3.3-5).
//
// Basic use:
//
//	prog, edb, err := existdlog.Parse(src)
//	opt, err := existdlog.Optimize(prog, existdlog.DefaultOptions())
//	res, err := existdlog.Eval(opt.Program, edb, existdlog.EvalOptions{BooleanCut: true})
//	rows := res.Answers(opt.Program.Query)
//
// The underlying machinery (adornment, transformation, deletion,
// uniform-equivalence testing, the chain-program/grammar bridge, and the
// magic-sets/counting rewrites the paper treats as orthogonal) lives in
// the internal packages and is surfaced through this facade.
package existdlog

import (
	"context"

	"existdlog/internal/ast"
	"existdlog/internal/engine"
	"existdlog/internal/ierr"
	"existdlog/internal/parser"
	"existdlog/internal/trace"
)

// Core types, aliased from the internal packages so that everything the
// facade returns interoperates with everything it accepts.
type (
	// Program is a set of rules plus a query goal.
	Program = ast.Program
	// Rule is a Horn rule Head :- Body.
	Rule = ast.Rule
	// Atom is a (possibly adorned) predicate occurrence.
	Atom = ast.Atom
	// Term is a variable or constant.
	Term = ast.Term
	// Adornment is a string over n/d (needed / existential).
	Adornment = ast.Adornment
	// Database is an extensional database of named relations.
	Database = engine.Database
	// EvalOptions configures bottom-up evaluation.
	EvalOptions = engine.Options
	// EvalResult is an evaluation outcome: derived database plus counters.
	EvalResult = engine.Result
	// Stats are the evaluation counters.
	Stats = engine.Stats
	// Tree is a derivation tree reconstructed from provenance.
	Tree = engine.Tree
	// InternalError is a recovered library panic: no exported entry point
	// (parser, optimizer, engine) lets a panic escape; bugs surface as an
	// *InternalError carrying the panic value and its stack.
	InternalError = ierr.InternalError
	// ArityMismatchError reports a predicate used with two different
	// arities; errors.Is(err, ErrArityMismatch) matches it.
	ArityMismatchError = engine.ArityMismatchError
)

// Sentinel errors surfaced by evaluation. ErrCanceled and ErrDeadline wrap
// the context cause and are matched with errors.Is; when either (or a
// limit) aborts an evaluation, the returned result is non-nil with
// Result.Partial set — the soundly derived prefix of the fixpoint.
var (
	ErrCanceled       = engine.ErrCanceled
	ErrDeadline       = engine.ErrDeadline
	ErrFactLimit      = engine.ErrFactLimit
	ErrIterationLimit = engine.ErrIterationLimit
	ErrArityMismatch  = engine.ErrArityMismatch
)

// Parse parses a Datalog source text: rules, an optional "?- goal." query,
// and ground facts (which become the returned database).
func Parse(src string) (*Program, *Database, error) {
	res, err := parser.Parse(src)
	if err != nil {
		return nil, nil, err
	}
	db := engine.NewDatabase()
	if err := db.AddAtoms(res.Facts); err != nil {
		return nil, nil, err
	}
	return res.Program, db, nil
}

// ParseProgram parses a source text containing no facts.
func ParseProgram(src string) (*Program, error) { return parser.ParseProgram(src) }

// MustParseProgram panics on parse errors; for tests and examples.
func MustParseProgram(src string) *Program { return parser.MustParseProgram(src) }

// NewDatabase returns an empty extensional database.
func NewDatabase() *Database { return engine.NewDatabase() }

// Eval evaluates a program bottom-up over the database (which is not
// mutated) and returns the derived relations and statistics. It cannot be
// interrupted; production callers should prefer EvalContext.
func Eval(p *Program, db *Database, opt EvalOptions) (*EvalResult, error) {
	return engine.Eval(p, db, opt)
}

// EvalContext is Eval under a context: per-query deadlines and
// cancellation are honored at every fixpoint pass barrier and at bounded
// intervals mid-pass, so aborting a blown-up query returns promptly with
// ErrCanceled or ErrDeadline and a non-nil partial result (Partial set,
// Incomplete naming the reason) holding everything soundly derived so far.
func EvalContext(ctx context.Context, p *Program, db *Database, opt EvalOptions) (*EvalResult, error) {
	return engine.EvalContext(ctx, p, db, opt)
}

// PlanPreview returns the join orders the runtime planner, which orders
// every evaluation's joins, would choose for every rule's startup
// version, with the live EDB cardinalities that justify them — the
// EXPLAIN view of the planner, without running the fixpoint.
func PlanPreview(p *Program, db *Database) ([]trace.VersionOrder, error) {
	return engine.PlanPreview(p, db)
}

// Update incrementally maintains a previous evaluation under newly added
// base facts: the semi-naive delta loop is seeded with just the additions,
// so work is proportional to the change (positive programs only; facts for
// derived predicates and negation are rejected).
func Update(p *Program, prev *EvalResult, added *Database, opt EvalOptions) (*EvalResult, error) {
	return engine.Update(p, prev, added, opt)
}

// UpdateContext is Update under a context, with EvalContext's cancellation
// and partial-result semantics.
func UpdateContext(ctx context.Context, p *Program, prev *EvalResult, added *Database, opt EvalOptions) (*EvalResult, error) {
	return engine.UpdateContext(ctx, p, prev, added, opt)
}

// Retract incrementally removes base facts from a previous evaluation
// using delete-and-rederive (DRed): over-deleted facts with surviving
// alternative derivations are restored. Positive programs only.
func Retract(p *Program, prev *EvalResult, removed *Database, opt EvalOptions) (*EvalResult, error) {
	return engine.Retract(p, prev, removed, opt)
}

// RetractContext is Retract under a context. Note that an aborted
// retraction's partial result may over-approximate (deletions not fully
// propagated); see engine.RetractContext.
func RetractContext(ctx context.Context, p *Program, prev *EvalResult, removed *Database, opt EvalOptions) (*EvalResult, error) {
	return engine.RetractContext(ctx, p, prev, removed, opt)
}
