package engine

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"time"

	"existdlog/internal/ast"
	"existdlog/internal/failpoint"
	"existdlog/internal/ierr"
	"existdlog/internal/trace"
)

// Options configures an evaluation.
type Options struct {
	// BooleanCut enables the runtime optimization of Section 3.1: a rule
	// defining a boolean (arity-0) predicate is removed from the fixpoint
	// once the predicate holds, and rules that fed only retired rules are
	// retired in cascade ("if q4 does not appear anywhere else in the
	// program, the rule defining it can also be discarded after B2 is
	// shown true"). With the cut enabled, non-query derived relations may
	// legitimately be under-computed; query answers are unaffected. Cut
	// decisions are taken only at pass barriers, never mid-pass, so a
	// pass's versions all see the same active rule set.
	BooleanCut bool
	// MaxIterations bounds the fixpoint (default 1<<20).
	MaxIterations int
	// MaxFacts bounds the number of derived facts (0 = unlimited); the
	// guard matters for programs using the arithmetic builtins. The limit
	// is exact: the insert that would exceed it is rejected, so
	// Stats.FactsDerived never overshoots MaxFacts.
	MaxFacts int
	// TrackProvenance records one justification per derived fact so that
	// derivation trees (Section 1.1 of the paper) can be reconstructed.
	TrackProvenance bool
	// Deprecated: ignored; every evaluation orders joins with the runtime planner.
	ReorderJoins bool
	// Trace records the pass timeline in Result.Trace.Passes: one record
	// per pass (delta sizes, facts, versions, cuts) and the join order
	// the planner chose for every version of the pass with the live
	// cardinalities that justified it
	// (trace.PassStats.Orders). The per-rule counters and the delta-size
	// histogram are kept whatever Trace says; without it, a pass keeps no
	// record of its own.
	Trace bool
	// PassTimes, together with Trace, additionally records in
	// Result.PassTimes the wall-clock offset (from evaluation start, real
	// monotonic clock) at which each pass barrier completed — one entry
	// per pass, aligned with Result.Trace.Passes. Request tracing uses
	// this to graft per-pass spans into a traced request's span tree.
	// Without Trace it records nothing, and the pass barrier performs no
	// clock reads.
	PassTimes bool
	// sizeHints, indexed by relation slot, are the row counts an earlier
	// complete evaluation of the same program ended with (see
	// WithSizeHints). Unexported: the public EvalOptions is this type.
	sizeHints []int
}

// WithSizeHints returns opt with the relation sizes an earlier complete
// evaluation of the same program ended with (SizeHints of its Result).
// When a stratum's first delta splits off, each full derived relation
// continues in storage sized from its hint, so a relation whose size
// repeats from run to run grows no more. Hints only change capacity:
// answers, insertion order and Stats are the same with any hints or none.
// Slots follow the program, so another program's hints are harmless but
// useless.
func WithSizeHints(opt Options, hints []int) Options {
	opt.sizeHints = hints
	return opt
}

// ErrFactLimit is returned when MaxFacts is exceeded.
var ErrFactLimit = errors.New("engine: derived fact limit exceeded")

// ErrIterationLimit is returned when MaxIterations is exceeded.
var ErrIterationLimit = errors.New("engine: iteration limit exceeded")

// ErrCanceled is returned (wrapped around the context cause) when the
// evaluation context is canceled mid-fixpoint.
var ErrCanceled = errors.New("engine: evaluation canceled")

// ErrDeadline is returned (wrapped around the context cause) when the
// evaluation context's deadline expires mid-fixpoint.
var ErrDeadline = errors.New("engine: evaluation deadline exceeded")

// Failpoint names compiled into the engine (active only under the
// failpoint build tag; see internal/failpoint). The catalog is documented
// in DESIGN.md §7.
const (
	// FPPass fires at every pass barrier, before the pass's versions run.
	FPPass = "engine/pass"
	// FPMerge fires at the merge barrier, before buffered emissions land.
	FPMerge = "engine/merge"
	// FPInsert fires on every derived-fact insert during a merge.
	FPInsert = "engine/insert"
	// FPVersion fires at the start of every rule-version evaluation,
	// inside the version's panic bulkhead — the place to inject version
	// panics and mid-pass delays.
	FPVersion = "engine/version"
)

// ctxCheckInterval is how many units of mid-pass work (join probes and
// merge inserts) may elapse between cancellation checks. Small enough that
// aborts land well within the documented 100ms bound on real workloads,
// large enough that the per-probe cost is one predictable branch.
const ctxCheckInterval = 1024

// Stats are the evaluation counters reported by the benchmarks. The paper
// argues arity reduction cuts both the facts produced and the duplicate
// elimination cost, so both are counted explicitly. The counters are
// deterministic.
type Stats struct {
	Iterations    int   // fixpoint passes
	FactsDerived  int   // distinct new facts added to derived relations
	Derivations   int64 // head tuples produced, including duplicates
	DuplicateHits int64 // derivations rejected by duplicate elimination
	JoinProbes    int64 // index probes performed during joins
	RulesRetired  int   // rules removed at runtime by the boolean cut
}

// FactRef identifies a fact for provenance.
type FactRef struct {
	Key string
	Row Tuple
}

// Justification records how a fact was first derived: the rule index in the
// evaluated program and the body facts used.
type Justification struct {
	Rule int
	Body []FactRef
}

// Result is the outcome of an evaluation.
type Result struct {
	// DB extends the input EDB with the derived relations. The input
	// database is never mutated.
	DB    *Database
	Stats Stats
	// Partial reports that the evaluation stopped before reaching the
	// fixpoint — canceled, past a deadline, over a limit, or aborted by an
	// injected fault. Every fact in DB is still soundly derived (the
	// partial database is a subset of the full fixpoint for cut-free runs),
	// and Stats exactly describe DB, but answers may be missing.
	Partial bool
	// Incomplete names why a Partial result stopped early: "canceled",
	// "deadline exceeded", "fact limit exceeded", "iteration limit
	// exceeded", or the abort error's message.
	Incomplete string
	// Trace holds the evaluation's per-rule counters (firings, emitted
	// tuples, facts, duplicates, join probes, cut events) and the
	// histogram of the delta sizes its passes started from; under
	// Options.Trace it also holds one record per pass (facts, versions,
	// delta sizes, cuts, join orders). It is never nil, and on partial
	// runs the per-rule counters still partition Stats exactly.
	Trace *trace.Metrics
	// PassTimes, under Options.Trace and Options.PassTimes, holds the
	// wall-clock offset from evaluation start at which each pass barrier
	// completed (monotonically increasing; pass i ran in the interval
	// [PassTimes[i-1], PassTimes[i]], with PassTimes[-1] taken as 0).
	// It is empty otherwise.
	PassTimes []time.Duration
	prov      map[string]*provSet
	sizes     []int // by relation slot; nil unless complete (SizeHints)
}

// builtinKind enumerates the arithmetic/comparison builtins available to
// rewritten programs (the counting rewrite needs succ). A predicate name is
// treated as a builtin only if it is neither derived nor present in the
// EDB.
type builtinKind int

const (
	notBuiltin  builtinKind = iota
	builtinSucc             // succ(X,Y): Y = X+1, X must be bound
	builtinLt               // lt(X,Y): numeric <, both bound
	builtinNeq              // neq(X,Y): distinct constants, both bound
)

type argRef struct {
	isConst bool
	constID int32
	slot    int
}

type literalPlan struct {
	key string
	// rel is the relation slot of key (see evaluator.slotOf).
	rel     int
	args    []argRef
	derived bool
	negated bool
	builtin builtinKind
	// occ is this literal's index among the rule's positive derived
	// occurrences (negated literals always read the finished relation of a
	// lower stratum, never a delta).
	occ int
}

type rulePlan struct {
	idx      int // index in the program's rule list
	headSlot int // the relation slot of the head predicate
	head     []argRef
	body     []literalPlan
	// nDeltas counts the body literals that can act as the delta in a
	// semi-naive version: positive derived literals always, and positive
	// base literals for incremental updates (their deltas are only
	// populated by Update, so ordinary runs skip those versions).
	nDeltas  int
	slots    int
	boolHead bool
	stratum  int
	// memo[occ+1] lists the plans computePlan has built for the version
	// reading delta occurrence occ (-1: the startup version), newest
	// first, chained through versionPlan.next.
	memo []*versionPlan
}

// versionPlan is one rule version's join plan: the order its body
// literals are joined in, and the bound columns that order gives each
// step. It is a function of the order alone, so it is immutable once
// built and shared by every pass whose planner picks the same order:
// each (rule, occurrence) keeps the plans it has built in rulePlan.memo,
// and at each pass barrier the greedy order, computed from live sizes,
// selects one (computePlan).
type versionPlan struct {
	// order[k] is the body literal evaluated at step k.
	order []int
	// boundCols[k] lists the argument positions of order[k] that are
	// bound (a constant, or a slot bound by an earlier step) when the
	// literal is probed — the bound-column index signature its Match
	// calls will use.
	boundCols [][]int
	// next is the memo's previous plan for the same (rule, occurrence).
	next *versionPlan
}

// version identifies one semi-naive rule version: a rule plan and the body
// occurrence reading the delta (-1 for startup versions). A pass is a
// list of versions; the list order is the merge order.
type version struct {
	pi  int
	occ int
	// vp is the version's join plan, set by runPass at the pass barrier.
	vp *versionPlan
	// empty marks a version that provably derives nothing this pass, also
	// decided at the barrier: some positive non-builtin literal reads a
	// relation (or delta) with zero live tuples. Negated literals never
	// count — negation over an empty relation succeeds.
	empty bool
}

// sink receives one merged head derivation of a pass, in (version,
// emission) order. runPass's default (a nil sink) is
// insertDerived; Retract substitutes a marking sink for over-deletion and a
// filtering one for re-derivation. The head is only valid during the call.
type sink func(plan *rulePlan, head Tuple, just []FactRef) error

// emitBuf buffers one rule version's head derivations awaiting the merge
// barrier, as one flat head-width-strided []int32 (head i occupies
// heads[i*w:(i+1)*w]) — a version emitting thousands of heads costs a few
// amortized slice growths, not an allocation per derivation, and the
// evaluator keeps its buffers from pass to pass (evaluator.bufs). n counts
// emissions explicitly because zero-arity heads contribute no int32s.
// justs is populated (parallel to emissions) only under TrackProvenance.
type emitBuf struct {
	heads []int32
	w     int
	n     int
	justs [][]FactRef
}

// pred is one relation slot's predicate key and arity.
type pred struct {
	key   string
	arity int
}

type evaluator struct {
	opt Options
	// ctx bounds the evaluation; done caches ctx.Done() and is nil for
	// non-cancelable contexts, reducing every cancellation check to one
	// nil comparison on the hot path.
	ctx     context.Context
	done    <-chan struct{}
	out     *Database
	plans   []*rulePlan
	active  []bool
	derived map[string]bool
	// slotOf gives every predicate key the program mentions (and any base
	// key an Update or Retract seeds; see slotFor) a dense relation slot.
	// Compile and the seeding read it; a pass addresses relations only by
	// slot. preds, rels, delta, next, spare and prov are indexed by slot:
	// rels[s] is the full relation, the same *Relation out holds under the
	// key (nil for a builtin, or a query relation that does not exist);
	// delta[s] is the delta the current pass reads and next[s] the one it
	// collects, nil meaning empty; spare[s] is an emptied delta whose arena
	// the next delta of s reuses (see collectPass).
	slotOf map[string]int
	preds  []pred
	rels   []*Relation
	delta  []*Relation
	next   []*Relation
	spare  []*Relation
	stats  Stats
	prov   []*provSet
	// The join recursion's scratch buffers, reused across rule versions.
	slotVals  []int32
	slotBound []bool
	bodyFacts []FactRef
	valsBuf   []Tuple
	newlyBuf  [][]int
	// planOrder, planUsed and planBound are the planner's greedy scratch
	// (see computePlan).
	planOrder []int
	planUsed  []bool
	planBound []bool
	// headBuf is the emission-site scratch tuple: every emit callback
	// either copies it (arena insert, buffered append) or reads it before
	// returning, so one buffer serves every emission of a rule version.
	headBuf Tuple
	// budget counts down mid-pass work units to the next cancellation
	// check (see ctxCheckInterval).
	budget    int
	querySlot int // -1 when the program has no query
	maxStrat  int
	// versBuf and bufs are recycled across passes: the version list of
	// each delta pass and the emission buffers of its versions.
	versBuf []version
	bufs    []emitBuf
	// tc collects the per-rule counters, the delta-size histogram and,
	// under Options.Trace, the pass records that become Result.Trace.
	tc *trace.Collector
	// passClock anchors Options.PassTimes offsets; zero unless both
	// PassTimes and Trace are set, reducing every traced barrier to one
	// IsZero check. passTimes accumulates the per-barrier completion
	// offsets.
	passClock time.Time
	passTimes []time.Duration
}

// tick is the mid-pass cancellation point: called once per join probe and
// per merge insert, it checks the context every ctxCheckInterval units so
// an abort lands with bounded latency even inside one enormous pass.
func (ev *evaluator) tick() error {
	if ev.done == nil {
		return nil
	}
	ev.budget--
	if ev.budget > 0 {
		return nil
	}
	ev.budget = ctxCheckInterval
	return ev.checkCtx()
}

// checkCtx is the pass-barrier cancellation point. It returns nil while
// the context is live and ErrCanceled/ErrDeadline wrapped around the
// context cause once it is not.
func (ev *evaluator) checkCtx() error {
	if ev.done == nil {
		return nil
	}
	select {
	case <-ev.done:
		return ev.ctxErr()
	default:
		return nil
	}
}

func (ev *evaluator) ctxErr() error {
	err := ev.ctx.Err()
	if err == nil {
		return nil
	}
	sentinel := ErrCanceled
	if errors.Is(err, context.DeadlineExceeded) {
		sentinel = ErrDeadline
	}
	if cause := context.Cause(ev.ctx); cause != nil {
		return fmt.Errorf("%w: %w", sentinel, cause)
	}
	return fmt.Errorf("%w: %w", sentinel, err)
}

// incompleteReason renders an abort error as Result.Incomplete.
func incompleteReason(err error) string {
	switch {
	case errors.Is(err, ErrCanceled):
		return "canceled"
	case errors.Is(err, ErrDeadline):
		return "deadline exceeded"
	case errors.Is(err, ErrFactLimit):
		return "fact limit exceeded"
	case errors.Is(err, ErrIterationLimit):
		return "iteration limit exceeded"
	}
	return err.Error()
}

// finish packages the evaluator's state as a Result. Runtime aborts return
// the partial database — everything soundly derived up to the abort, with
// Stats exactly describing it — alongside the error, so callers can use
// the prefix (graceful degradation) or discard it.
func (ev *evaluator) finish(evalErr error) (*Result, error) {
	res := &Result{DB: ev.out, Stats: ev.stats, Trace: ev.tc.Metrics(), prov: ev.provByKey(), PassTimes: ev.passTimes}
	if evalErr != nil {
		res.Partial = true
		res.Incomplete = incompleteReason(evalErr)
	} else {
		res.sizes = make([]int, len(ev.rels))
		for s, rel := range ev.rels {
			if rel != nil {
				res.sizes[s] = rel.Len()
			}
		}
	}
	return res, evalErr
}

// SizeHints returns res's relation row counts by relation slot, the hints
// a later evaluation of the same program sizes its derived storage from
// (WithSizeHints). It is nil for a partial result, whose sizes say nothing
// about a complete run.
func SizeHints(res *Result) []int { return res.sizes }

// provByKey keys the per-slot provenance by predicate for the Result
// (nil unless TrackProvenance).
func (ev *evaluator) provByKey() map[string]*provSet {
	if ev.prov == nil {
		return nil
	}
	m := make(map[string]*provSet)
	for s, ps := range ev.prov {
		if ps != nil {
			m[ev.preds[s].key] = ps
		}
	}
	return m
}

// deltaSizes snapshots the current delta relation sizes, sorted by
// predicate, for a pass record.
func (ev *evaluator) deltaSizes() []trace.DeltaSize {
	n := 0
	for _, d := range ev.delta {
		if d != nil {
			n++
		}
	}
	if n == 0 {
		return nil
	}
	out := make([]trace.DeltaSize, 0, n)
	for s, d := range ev.delta {
		if d != nil {
			out = append(out, trace.DeltaSize{Predicate: ev.preds[s].key, Size: d.Len()})
		}
	}
	slices.SortFunc(out, func(a, b trace.DeltaSize) int { return cmp.Compare(a.Predicate, b.Predicate) })
	return out
}

// versionOrder converts one version's join plan into its trace record:
// the literals in chosen order, the live cardinalities that justified the
// choice (read now, at the barrier that planned it, whose state is the
// planner's), and each step's bound-argument count.
func (ev *evaluator) versionOrder(plan *rulePlan, v version) trace.VersionOrder {
	vp := v.vp
	vo := trace.VersionOrder{
		Rule: plan.idx, Occ: v.occ, Skipped: v.empty,
		Literals: make([]string, len(vp.order)),
		Bound:    make([]int, len(vp.order)),
	}
	if len(vp.order) > 0 {
		vo.Sizes = make([]int, len(vp.order))
	}
	for k, li := range vp.order {
		lp := &plan.body[li]
		name := lp.key
		switch {
		case lp.negated:
			name = "not " + name
		case lp.builtin == notBuiltin && lp.occ >= 0 && lp.occ == v.occ:
			name = "~" + name // the delta occurrence
		}
		vo.Literals[k] = name
		vo.Sizes[k] = ev.liveSize(lp, v.occ)
		vo.Bound[k] = len(vp.boundCols[k])
	}
	return vo
}

// markPass records the wall-clock offset of a completed traced pass
// barrier under Options.PassTimes (one IsZero branch when disabled).
func (ev *evaluator) markPass() {
	if ev.passClock.IsZero() {
		return
	}
	ev.passTimes = append(ev.passTimes, time.Since(ev.passClock))
}

// Eval evaluates program p bottom-up over the extensional database edb and
// returns the derived database and statistics. The input database is not
// mutated. Facts present in edb for derived predicates are honored as
// seeds, which is what the uniform-equivalence tests of Sections 3.3-5
// require ("Input = an instance of the DB", IDB predicates included).
// Eval cannot be interrupted; use EvalContext to bound a query.
func Eval(p *ast.Program, edb *Database, opt Options) (*Result, error) {
	return EvalContext(context.Background(), p, edb, opt)
}

// EvalContext is Eval under a context: cancellation and deadline are
// checked at every pass barrier and every ctxCheckInterval units of
// mid-pass work, so an aborted query returns within a bounded latency with
// ErrCanceled or ErrDeadline (wrapped around the context cause) and a
// partial Result — the soundly derived prefix of the fixpoint, with
// Result.Partial set and Stats exactly describing the partial database.
// Limit aborts (ErrFactLimit, ErrIterationLimit) return partial results
// the same way. Internal panics are recovered into a *ierr.InternalError
// instead of crossing the API boundary.
func EvalContext(ctx context.Context, p *ast.Program, edb *Database, opt Options) (res *Result, err error) {
	defer ierr.Rescue(&err)
	ev, err := newEvaluator(ctx, p, edb, opt, nil)
	if err != nil {
		return nil, err
	}
	return ev.finish(ev.runSemiNaive())
}

// maintenance describes an incremental entry point (Update, Retract) to
// newEvaluator: the base facts changing and the provenance recorded so far
// for the result being maintained.
type maintenance struct {
	delta *Database
	prov  map[string]*provSet
	// noun and verb word the two rejections ("incremental <noun> under
	// negation", "<verb> facts for derived predicate").
	noun, verb string
}

// newEvaluator validates p and compiles it into an evaluator over a private
// clone of db. An incremental entry point (m non-nil, db the database being
// maintained) additionally gets its restrictions checked and its provenance
// carried forward. Every entry point builds its evaluator here, so they
// share one validation and one set of defaults.
func newEvaluator(ctx context.Context, p *ast.Program, db *Database, opt Options, m *maintenance) (*evaluator, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = 1 << 20
	}
	if err := p.Validate(); err != nil {
		return nil, err
	}
	if m != nil {
		if p.HasNegation() {
			return nil, fmt.Errorf("engine: incremental %s under negation is not supported (re-evaluate)", m.noun)
		}
		for _, key := range m.delta.Keys() {
			if p.Derived[key] {
				return nil, fmt.Errorf("engine: %s facts for derived predicate %s", m.verb, key)
			}
		}
	}
	texts := make([]string, len(p.Rules))
	for i := range p.Rules {
		texts[i] = p.Rules[i].String()
	}
	ev := &evaluator{
		opt:     opt,
		ctx:     ctx,
		done:    ctx.Done(),
		out:     db.Clone(),
		derived: p.Derived,
		slotOf:  make(map[string]int),
		tc:      trace.NewCollector(texts),
	}
	if opt.PassTimes && opt.Trace {
		ev.passClock = time.Now()
	}
	if err := ev.compile(p); err != nil {
		return nil, err
	}
	if opt.TrackProvenance {
		ev.prov = make([]*provSet, len(ev.preds))
		if m != nil {
			// prev came from the same program, so every key with recorded
			// provenance (a rule head) has a slot.
			for k, ps := range m.prov {
				if s, ok := ev.slotOf[k]; ok {
					ev.prov[s] = ps.clone()
				}
			}
		}
	}
	return ev, nil
}

// IsBuiltin reports whether a literal over name/arity is computed by the
// engine (succ, lt, neq) rather than looked up in a relation.
func IsBuiltin(name string, arity int) bool { return builtinFor(name, arity) != notBuiltin }

func builtinFor(name string, arity int) builtinKind {
	switch {
	case name == "succ" && arity == 2:
		return builtinSucc
	case name == "lt" && arity == 2:
		return builtinLt
	case name == "neq" && arity == 2:
		return builtinNeq
	}
	return notBuiltin
}

func (ev *evaluator) compile(p *ast.Program) error {
	// Give every predicate a slot, recording its arity, and materialize
	// derived relations so that empty derived predicates exist in the
	// output. Conflicts — between two uses in the program, or between a
	// use and the database — are rejected here with the typed arity error
	// rather than discovered as a panic mid-evaluation.
	note := func(a ast.Atom) error {
		key := a.Key()
		if s, ok := ev.slotOf[key]; ok {
			if n := ev.preds[s].arity; n != a.Arity() {
				return fmt.Errorf("atom %s: %w", a, &ArityMismatchError{Key: key, Want: a.Arity(), Have: n})
			}
			return nil
		}
		if err := ev.out.CheckArity(key, a.Arity()); err != nil {
			return fmt.Errorf("atom %s: %w", a, err)
		}
		ev.slotOf[key] = len(ev.preds)
		ev.preds = append(ev.preds, pred{key: key, arity: a.Arity()})
		return nil
	}
	for _, r := range p.Rules {
		if err := note(r.Head); err != nil {
			return err
		}
		for _, b := range r.Body {
			if err := note(b); err != nil {
				return err
			}
		}
	}
	ev.querySlot = -1
	if p.Query.Pred != "" {
		if err := note(p.Query); err != nil {
			return err
		}
		ev.querySlot = ev.slotOf[p.Query.Key()]
	}
	for _, pr := range ev.preds {
		if ev.derived[pr.key] {
			ev.out.Relation(pr.key, pr.arity)
		}
	}

	for i, r := range p.Rules {
		plan := &rulePlan{idx: i, headSlot: ev.slotOf[r.Head.Key()], boolHead: r.Head.Arity() == 0}
		slots := make(map[string]int)
		slotOf := func(name string) int {
			if s, ok := slots[name]; ok {
				return s
			}
			s := len(slots)
			slots[name] = s
			return s
		}
		refFor := func(t ast.Term) argRef {
			if t.Kind == ast.Constant {
				return argRef{isConst: true, constID: ev.out.Syms.Intern(t.Name)}
			}
			return argRef{slot: slotOf(t.Name)}
		}
		// Positive literals first (they bind the variables), negated
		// literals moved to the end (safety guarantees their variables are
		// bound by then); relative order within each group is preserved.
		var negatedLits []literalPlan
		for _, b := range r.Body {
			key := b.Key()
			lp := literalPlan{key: key, rel: ev.slotOf[key], occ: -1, negated: b.Negated}
			lp.derived = ev.derived[key]
			if !lp.derived && !ev.out.Has(key) {
				lp.builtin = builtinFor(b.Pred, b.Arity())
			}
			if b.Negated && lp.builtin != notBuiltin {
				return fmt.Errorf("rule %d: negated builtin %s", i+1, b)
			}
			for _, t := range b.Args {
				lp.args = append(lp.args, refFor(t))
			}
			if b.Negated {
				negatedLits = append(negatedLits, lp)
				continue
			}
			if lp.builtin == notBuiltin {
				lp.occ = plan.nDeltas
				plan.nDeltas++
			}
			plan.body = append(plan.body, lp)
		}
		plan.body = append(plan.body, negatedLits...)
		// Head: variables must already have slots (range restriction),
		// except anonymous head variables, which evaluate to the reserved
		// constant.
		for _, t := range r.Head.Args {
			if t.Kind == ast.Variable {
				if _, ok := slots[t.Name]; !ok {
					if !t.IsAnon() {
						return fmt.Errorf("rule %d: unbound head variable %s", i+1, t.Name)
					}
					plan.head = append(plan.head, argRef{isConst: true, constID: AnonID})
					continue
				}
			}
			plan.head = append(plan.head, refFor(t))
		}
		plan.slots = len(slots)
		ev.plans = append(ev.plans, plan)
	}
	// The planner's storage, allocated once: a memo head per rule version
	// and the greedy's scratch, sized for the longest body and the most
	// slots, so a pass whose orders are all memoized plans without
	// allocating.
	nv, maxBody, maxSlots := 0, 0, 0
	for _, plan := range ev.plans {
		nv += plan.nDeltas + 1
		maxBody = max(maxBody, len(plan.body))
		maxSlots = max(maxSlots, plan.slots)
	}
	memo := make([]*versionPlan, nv)
	for _, plan := range ev.plans {
		k := plan.nDeltas + 1
		plan.memo, memo = memo[:k:k], memo[k:]
	}
	ev.planOrder = make([]int, 0, maxBody)
	flags := make([]bool, maxBody+maxSlots)
	ev.planUsed, ev.planBound = flags[:maxBody:maxBody], flags[maxBody:]
	// Materialize every non-builtin body relation up front, so relation
	// lookup during a pass is read-only. Existing relations are left
	// untouched. Then bind each slot to its relation.
	for _, plan := range ev.plans {
		for i := range plan.body {
			lp := &plan.body[i]
			if lp.builtin == notBuiltin && !ev.out.Has(lp.key) {
				ev.out.Relation(lp.key, len(lp.args))
			}
		}
	}
	n := len(ev.preds)
	all := make([]*Relation, 4*n)
	ev.rels, ev.delta, ev.next, ev.spare = all[:n:n], all[n:2*n:2*n], all[2*n:3*n:3*n], all[3*n:]
	for s, pr := range ev.preds {
		ev.rels[s], _ = ev.out.Lookup(pr.key)
	}
	ev.active = make([]bool, len(ev.plans))
	for i := range ev.active {
		ev.active[i] = true
	}
	// Stratify for negation-as-failure; positive programs land in one
	// stratum.
	strata, err := Stratify(p)
	if err != nil {
		return err
	}
	for _, plan := range ev.plans {
		plan.stratum = strata[ev.preds[plan.headSlot].key]
		if plan.stratum > ev.maxStrat {
			ev.maxStrat = plan.stratum
		}
	}
	return nil
}

// slotFor returns key's relation slot, first giving one to a base key the
// program never mentions (an Update or Retract seed), bound to out's
// relation of that arity.
func (ev *evaluator) slotFor(key string, arity int) int {
	rel := ev.out.Relation(key, arity)
	s, ok := ev.slotOf[key]
	if !ok {
		s = len(ev.preds)
		ev.slotOf[key] = s
		ev.preds = append(ev.preds, pred{key: key, arity: arity})
		ev.rels = append(ev.rels, nil)
		ev.delta = append(ev.delta, nil)
		ev.next = append(ev.next, nil)
		ev.spare = append(ev.spare, nil)
		if ev.prov != nil {
			ev.prov = append(ev.prov, nil)
		}
	}
	ev.rels[s] = rel
	return s
}

// appendDelta appends t, just found new in a superset, to the delta d[s],
// which on first use takes the slot's spare storage or starts empty.
func (ev *evaluator) appendDelta(d []*Relation, s int, t Tuple) {
	if d[s] == nil {
		if d[s] = ev.spare[s]; d[s] != nil {
			ev.spare[s] = nil
		} else {
			d[s] = newDelta(len(t))
		}
	}
	d[s].appendNew(t)
}

// relationFor resolves the relation a literal reads during a given rule
// version: deltaOcc selects which derived occurrence reads the delta
// (-1 for none, i.e. startup passes).
func (ev *evaluator) relationFor(lp *literalPlan, deltaOcc int) *Relation {
	if lp.occ >= 0 && lp.occ == deltaOcc {
		if d := ev.delta[lp.rel]; d != nil {
			return d
		}
	}
	r := ev.rels[lp.rel]
	if r == nil {
		// compile materializes every body relation, and Retract's Replace
		// rebinds the slot, so this is an engine bug: the version's
		// bulkhead turns the panic into an internal error.
		panic(fmt.Sprintf("engine: relation %s read but never materialized", lp.key))
	}
	return r
}

// computePlan returns the greedy plan for one rule version against the
// live relation state. runPass calls it once per version at the pass
// barrier, before any version runs, so the sizes an order was chosen from
// hold for the whole pass (inserts happen only at merge barriers). The
// greedy (greedyOrder) decides only the order, in the evaluator's
// scratch; the version's memo then supplies the plan it built the last
// time it chose that order, and builds one only on a miss. The bound
// columns follow from the order alone, so a memoized plan is exactly the
// plan a fresh build would return.
func (ev *evaluator) computePlan(plan *rulePlan, deltaOcc int) *versionPlan {
	ev.planOrder = ev.greedyOrder(plan, deltaOcc, ev.planOrder, ev.planUsed, ev.planBound)
	memo := &plan.memo[deltaOcc+1]
	for vp := *memo; vp != nil; vp = vp.next {
		if slices.Equal(vp.order, ev.planOrder) {
			if refCheckEnabled {
				ev.verifyPlan(plan, deltaOcc, vp)
			}
			return vp
		}
	}
	if testHookPlanMiss != nil {
		testHookPlanMiss(plan.idx, deltaOcc)
	}
	vp := newVersionPlan(plan, ev.planOrder, ev.planBound)
	vp.next, *memo = *memo, vp
	return vp
}

// testHookPlanMiss, when set by a test, is called once per plan
// computePlan builds (a memo miss) with the rule index and the delta
// occurrence. Nil in production.
var testHookPlanMiss func(rule, occ int)

// greedyOrder runs the greedy ordering for one rule version against the
// live relation state and returns the order in order's storage (used and
// boundSlot are scratch for the body and the rule's slots): the delta
// literal first (sized by the delta), then repeatedly the ready literal
// with the most bound arguments — preferring base relations over derived
// ones (their sizes are stable across passes), then the smaller live
// relation, then body order. Bound slots propagate through the
// chosen prefix. With storage of the body's length it allocates nothing.
func (ev *evaluator) greedyOrder(plan *rulePlan, deltaOcc int, order []int, used, boundSlot []bool) []int {
	n := len(plan.body)
	order = order[:0]
	used = used[:n]
	boundSlot = boundSlot[:plan.slots]
	clear(used)
	clear(boundSlot)
	take := func(li int) {
		used[li] = true
		order = append(order, li)
		markBound(&plan.body[li], boundSlot)
	}
	// Semi-naive versions start from the literal reading the delta
	// (derived occurrences in ordinary runs; base occurrences under
	// incremental Update).
	if deltaOcc >= 0 {
		for li := range plan.body {
			if plan.body[li].occ == deltaOcc {
				take(li)
				break
			}
		}
	}
	for len(order) < n {
		best, bestBound, bestBase, bestSize := -1, -1, false, 0
		for li := range plan.body {
			if used[li] {
				continue
			}
			lp := &plan.body[li]
			if !ready(lp, boundSlot) {
				continue
			}
			boundArgs := 0
			for _, a := range lp.args {
				if a.isConst || boundSlot[a.slot] {
					boundArgs++
				}
			}
			isBase := lp.builtin == notBuiltin && !lp.derived
			size := ev.liveSize(lp, deltaOcc)
			// More bound arguments first; then base over derived; then the
			// smaller live relation; the ascending scan with strict
			// improvement keeps body order on full ties.
			better := boundArgs > bestBound
			if !better && boundArgs == bestBound {
				switch {
				case isBase != bestBase:
					better = isBase
				case size < bestSize:
					better = true
				}
			}
			if better {
				best, bestBound, bestBase, bestSize = li, boundArgs, isBase, size
			}
		}
		if best >= 0 {
			take(best)
			continue
		}
		// Nothing is ready: only negated literals and builtins whose
		// binding requirements are unmet remain. Force exactly one — the
		// textually first non-negated literal if any, else the textually
		// first negated one — and rerun the selection, so a builtin forced
		// here can still make a later builtin ready and negated literals
		// stay at the tail. If the forced builtin's arguments are genuinely
		// never bound, the runtime reports the binding error, and reports
		// it deterministically because this order is.
		forced := -1
		for li := range plan.body {
			if used[li] {
				continue
			}
			if !plan.body[li].negated {
				forced = li
				break
			}
			if forced < 0 {
				forced = li
			}
		}
		take(forced)
	}
	return order
}

// ready reports whether the greedy may place lp next, given the slots
// bound so far: negated literals run last (the fallback order), and a
// builtin needs the arguments it cannot compute.
func ready(lp *literalPlan, boundSlot []bool) bool {
	if lp.negated {
		return false
	}
	boundOf := func(i int) bool {
		a := lp.args[i]
		return a.isConst || boundSlot[a.slot]
	}
	switch lp.builtin {
	case builtinSucc:
		return boundOf(0) || boundOf(1)
	case builtinLt, builtinNeq:
		return boundOf(0) && boundOf(1)
	}
	return true
}

// liveSize is the live cardinality the planner reads for lp in the
// version reading delta occurrence deltaOcc: the delta's size for the
// delta literal, the full relation's otherwise, 1 for a builtin.
func (ev *evaluator) liveSize(lp *literalPlan, deltaOcc int) int {
	if lp.builtin != notBuiltin {
		return 1
	}
	rel := ev.rels[lp.rel]
	if lp.occ >= 0 && lp.occ == deltaOcc {
		rel = ev.delta[lp.rel]
	}
	if rel == nil {
		return 0
	}
	return rel.Len()
}

// emptyJoin reports whether the version reading delta occurrence
// deltaOcc provably derives nothing against the live state: some
// positive non-builtin literal reads a relation (or delta) with zero live
// tuples. Negated literals never count — negation over an empty relation
// succeeds.
func (ev *evaluator) emptyJoin(plan *rulePlan, deltaOcc int) bool {
	for li := range plan.body {
		lp := &plan.body[li]
		if lp.builtin == notBuiltin && !lp.negated && ev.liveSize(lp, deltaOcc) == 0 {
			return true
		}
	}
	return false
}

// newVersionPlan builds the plan that joins plan's body in the given
// order (copied): replaying the bindings of each prefix gives every
// step's bound columns (boundSlot is scratch for the rule's slots). The
// order and all the bound columns share one allocation.
func newVersionPlan(plan *rulePlan, order []int, boundSlot []bool) *versionPlan {
	n, nargs := len(order), 0
	for li := range plan.body {
		nargs += len(plan.body[li].args)
	}
	ints := make([]int, n, n+nargs)
	copy(ints, order)
	vp := &versionPlan{order: ints[:n:n], boundCols: make([][]int, n)}
	boundSlot = boundSlot[:plan.slots]
	clear(boundSlot)
	cols := ints[n:]
	for k, li := range order {
		// Step k's bound columns: a constant, or a slot an earlier step
		// bound.
		lp, at := &plan.body[li], len(cols)
		for i, a := range lp.args {
			if a.isConst || boundSlot[a.slot] {
				cols = append(cols, i)
			}
		}
		if len(cols) > at {
			vp.boundCols[k] = cols[at:len(cols):len(cols)]
		}
		markBound(lp, boundSlot)
	}
	return vp
}

// markBound marks the slots lp binds once its step has run. A builtin
// that lets the join proceed has both arguments bound afterwards;
// negation binds nothing at runtime.
func markBound(lp *literalPlan, boundSlot []bool) {
	if lp.negated {
		return
	}
	for _, a := range lp.args {
		if !a.isConst {
			boundSlot[a.slot] = true
		}
	}
}

// evalRule joins the body of plan in the order vp fixes (with the
// deltaOcc-th derived occurrence reading the delta) and feeds the head
// tuples to emit. It reads relations but never writes them; the only
// counters it touches are JoinProbes and the trace's firings and probes.
func (ev *evaluator) evalRule(plan *rulePlan, deltaOcc int, vp *versionPlan, emit func(Tuple, []FactRef) error) error {
	ev.tc.Fire(plan.idx)
	if cap(ev.slotVals) < plan.slots {
		ev.slotVals = make([]int32, plan.slots)
		ev.slotBound = make([]bool, plan.slots)
	}
	vals := ev.slotVals[:plan.slots]
	bound := ev.slotBound[:plan.slots]
	for i := range bound {
		bound[i] = false
	}
	if ev.opt.TrackProvenance {
		if cap(ev.bodyFacts) < len(plan.body) {
			ev.bodyFacts = make([]FactRef, len(plan.body))
		}
	}
	// Per-depth scratch for the probe values and the newly bound slots,
	// reused across all tuples of a literal.
	for len(ev.valsBuf) < len(plan.body) {
		ev.valsBuf = append(ev.valsBuf, make(Tuple, 0, 8))
		ev.newlyBuf = append(ev.newlyBuf, make([]int, 0, 8))
	}
	var rec func(step int) error
	rec = func(step int) error {
		if step == len(plan.body) {
			// Emission site: also a cancellation point, so rules whose last
			// literal scans a huge relation (many emissions per probe)
			// still abort promptly.
			if err := ev.tick(); err != nil {
				return err
			}
			if cap(ev.headBuf) < len(plan.head) {
				ev.headBuf = make(Tuple, len(plan.head))
			}
			head := ev.headBuf[:len(plan.head)]
			for i, a := range plan.head {
				if a.isConst {
					head[i] = a.constID
				} else {
					head[i] = vals[a.slot]
				}
			}
			var just []FactRef
			if ev.opt.TrackProvenance {
				just = append(just, ev.bodyFacts[:len(plan.body)]...)
			}
			return emit(head, just)
		}
		li := vp.order[step]
		lp := &plan.body[li]
		if lp.builtin != notBuiltin {
			return ev.evalBuiltin(plan, lp, step, vals, bound, rec)
		}
		rel := ev.relationFor(lp, deltaOcc)
		// The plan fixes this step's bound argument positions (they depend
		// only on the order, which binds the same slots the runtime does);
		// only the probe values vary per invocation.
		cols := vp.boundCols[step]
		cvals := ev.valsBuf[step][:0]
		for _, i := range cols {
			if a := lp.args[i]; a.isConst {
				cvals = append(cvals, a.constID)
			} else {
				cvals = append(cvals, vals[a.slot])
			}
		}
		ev.valsBuf[step] = cvals
		if lp.negated {
			// Negation as failure against the finished lower-stratum
			// relation. Safety has bound every named variable; remaining
			// unbound positions are anonymous wildcards.
			ev.stats.JoinProbes++
			ev.tc.Probe(plan.idx)
			if err := ev.tick(); err != nil {
				return err
			}
			matched := rel.Len() > 0
			if len(cols) > 0 {
				rows := rel.Match(cols, cvals)
				_, matched = rows.Next()
			}
			if !matched {
				if ev.opt.TrackProvenance {
					ev.bodyFacts[li] = FactRef{}
				}
				return rec(step + 1)
			}
			return nil
		}
		ev.stats.JoinProbes++
		ev.tc.Probe(plan.idx)
		if err := ev.tick(); err != nil {
			return err
		}
		// An unconstrained literal scans the arena; a bound one walks its
		// index bucket. Both visit rows in insertion order.
		rows := rel.scan()
		if len(cols) > 0 {
			rows = rel.Match(cols, cvals)
		}
		for ti, more := rows.Next(); more; ti, more = rows.Next() {
			t := rel.Tuple(int(ti))
			newly := ev.newlyBuf[step][:0]
			ok := true
			for i, a := range lp.args {
				if a.isConst {
					continue
				}
				if bound[a.slot] {
					if vals[a.slot] != t[i] {
						ok = false
						break
					}
				} else {
					vals[a.slot] = t[i]
					bound[a.slot] = true
					newly = append(newly, a.slot)
				}
			}
			ev.newlyBuf[step] = newly
			if ok {
				if ev.opt.TrackProvenance {
					ev.bodyFacts[li] = FactRef{Key: lp.key, Row: t}
				}
				if err := rec(step + 1); err != nil {
					return err
				}
			}
			for _, s := range newly {
				bound[s] = false
			}
		}
		return nil
	}
	return rec(0)
}

func (ev *evaluator) evalBuiltin(plan *rulePlan, lp *literalPlan, step int, vals []int32, bound []bool, rec func(int) error) error {
	syms := ev.out.Syms
	get := func(a argRef) (int32, bool) {
		if a.isConst {
			return a.constID, true
		}
		if bound[a.slot] {
			return vals[a.slot], true
		}
		return 0, false
	}
	num := func(id int32) (int, bool) {
		n, err := strconv.Atoi(syms.Name(id))
		return n, err == nil
	}
	x, xok := get(lp.args[0])
	y, yok := get(lp.args[1])
	switch lp.builtin {
	case builtinSucc:
		// succ(I,J) over the naturals: J = I+1. Either side may be bound;
		// the counting rewrite uses both directions (climbing binds I,
		// descending binds J).
		switch {
		case xok:
			n, ok := num(x)
			if !ok {
				return nil // non-numeric constant: no successor
			}
			ny := syms.Intern(strconv.Itoa(n + 1))
			if yok {
				if y == ny {
					return rec(step + 1)
				}
				return nil
			}
			a := lp.args[1]
			vals[a.slot], bound[a.slot] = ny, true
			err := rec(step + 1)
			bound[a.slot] = false
			return err
		case yok:
			n, ok := num(y)
			if !ok || n < 1 {
				return nil
			}
			nx := syms.Intern(strconv.Itoa(n - 1))
			a := lp.args[0]
			vals[a.slot], bound[a.slot] = nx, true
			err := rec(step + 1)
			bound[a.slot] = false
			return err
		default:
			return fmt.Errorf("rule %d: succ/2 requires at least one argument bound", plan.idx+1)
		}
	case builtinLt:
		if !xok || !yok {
			return fmt.Errorf("rule %d: lt/2 requires both arguments bound", plan.idx+1)
		}
		nx, ok1 := num(x)
		ny, ok2 := num(y)
		if ok1 && ok2 && nx < ny {
			return rec(step + 1)
		}
		return nil
	case builtinNeq:
		if !xok || !yok {
			return fmt.Errorf("rule %d: neq/2 requires both arguments bound", plan.idx+1)
		}
		if x != y {
			return rec(step + 1)
		}
		return nil
	}
	return fmt.Errorf("rule %d: unknown builtin", plan.idx+1)
}

// evalVersion runs one rule version to completion, buffering every head
// derivation instead of inserting it, into buf's storage (a buffer an
// earlier pass merged, or the zero buffer). The buffer is merged later, at
// the pass barrier, in version order.
func (ev *evaluator) evalVersion(plan *rulePlan, v version, buf emitBuf) (emitBuf, error) {
	buf = emitBuf{heads: buf.heads[:0], w: len(plan.head), justs: buf.justs[:0]}
	track := ev.opt.TrackProvenance
	err := ev.evalRule(plan, v.occ, v.vp, func(t Tuple, just []FactRef) error {
		buf.heads = append(buf.heads, t...)
		buf.n++
		if track {
			buf.justs = append(buf.justs, just)
		}
		return nil
	})
	if err != nil {
		return emitBuf{}, err
	}
	return buf, nil
}

// runVersion is evalVersion behind the engine's fault bulkhead: a panic
// during rule-version evaluation (a bug, or an injected FPVersion panic)
// is recovered into a stack-carrying *ierr.InternalError, so the pass
// fails like any other errored version and the evaluation still returns
// its partial result. The API-boundary recovery (ierr.Rescue) would
// return no result at all.
func (ev *evaluator) runVersion(plan *rulePlan, v version, reuse emitBuf) (buf emitBuf, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			buf, err = emitBuf{}, ierr.New(rec)
		}
	}()
	if err := failpoint.Inject(FPVersion); err != nil {
		return emitBuf{}, err
	}
	return ev.evalVersion(plan, v, reuse)
}

// insertDerived adds a head tuple to the full relation (and the "next"
// delta for semi-naive), maintaining counters, limits, and provenance.
func (ev *evaluator) insertDerived(plan *rulePlan, head Tuple, just []FactRef, collectNext bool) error {
	ev.stats.Derivations++
	// The per-rule counter moves in lockstep with the aggregate, BEFORE
	// the abort points below, so partial runs keep the partition invariant
	// (sum of per-rule Emitted == Stats.Derivations).
	ev.tc.Emit(plan.idx)
	// Merge-side cancellation point (the merge of a huge pass can itself
	// take a while) and fault-injection site. Aborting mid-merge is sound:
	// the facts already inserted are valid consequences, and Stats count
	// exactly them.
	if err := ev.tick(); err != nil {
		return err
	}
	if err := failpoint.Inject(FPInsert); err != nil {
		return err
	}
	rel := ev.rels[plan.headSlot]
	// MaxFacts is exact: the insert that would exceed the limit is
	// rejected before it lands, so FactsDerived never overshoots — the
	// merge loop stops mid-buffer on the first over-limit fact. Duplicate
	// derivations past the limit are still counted, not errors.
	if ev.opt.MaxFacts > 0 && ev.stats.FactsDerived >= ev.opt.MaxFacts && !rel.Contains(head) {
		return ErrFactLimit
	}
	if !rel.Insert(head) {
		ev.stats.DuplicateHits++
		ev.tc.Duplicate(plan.idx)
		return nil
	}
	ev.stats.FactsDerived++
	ev.tc.Fact(plan.idx)
	if collectNext {
		ev.appendDelta(ev.next, plan.headSlot, head)
	}
	if ev.opt.TrackProvenance {
		m := ev.prov[plan.headSlot]
		if m == nil {
			m = newProvSet()
			ev.prov[plan.headSlot] = m
		}
		kept := just[:0]
		for _, f := range just {
			if f.Key != "" {
				kept = append(kept, f)
			}
		}
		m.put(head, Justification{Rule: plan.idx, Body: kept})
	}
	return nil
}

// runPass evaluates the given rule versions in order against the pass's
// frozen relation state, buffering every derivation, then merges the
// buffers in (rule, occurrence, emission) order. Relations mutate only
// during the merge, so every version of a pass reads the same state — the
// frozen pass that semi-naive evaluation is defined by. It is the only
// semi-naive pass executor: Eval's startup and delta passes, Update's delta
// passes and both of Retract's phases differ only in the versions they list
// and in where merged derivations go. A nil sink inserts them
// (insertDerived, with collectNext routing genuinely new facts into the
// next delta); a non-nil sink receives them instead.
//
// Every pass, empty or aborted, counts the delta sizes it starts from into
// the trace's delta histogram. Under Options.Trace it also lands one pass
// record of stratum in the trace — those delta sizes, the facts it added
// before any abort, and its join orders — and, under
// Options.PassTimes, one PassTimes entry.
func (ev *evaluator) runPass(versions []version, collectNext bool, stratum int, sink sink) error {
	for _, d := range ev.delta {
		if d != nil {
			ev.tc.Delta(d.Len())
		}
	}
	if !ev.opt.Trace {
		return ev.execPass(versions, collectNext, sink, nil)
	}
	rec := trace.PassStats{Pass: ev.stats.Iterations, Stratum: stratum, Versions: len(versions), Deltas: ev.deltaSizes()}
	before := ev.stats.FactsDerived
	err := ev.execPass(versions, collectNext, sink, &rec)
	rec.Facts = ev.stats.FactsDerived - before
	ev.tc.Pass(rec)
	ev.markPass()
	return err
}

// execPass is runPass without the pass record: it plans, runs and merges
// the versions, appending their join orders to rec when rec is non-nil
// (a traced pass).
func (ev *evaluator) execPass(versions []version, collectNext bool, sink sink, rec *trace.PassStats) error {
	if len(versions) == 0 {
		return nil
	}
	// Pass barrier: cancellation is always checked here, and the FPPass
	// failpoint can abort a build under test before any version runs.
	if err := ev.checkCtx(); err != nil {
		return err
	}
	if err := failpoint.Inject(FPPass); err != nil {
		return err
	}
	// Plan barrier: plan every version once, up front, from the live
	// relation and delta cardinalities (sizes are stable in a pass).
	// Versions whose join is provably empty are dropped here and never
	// run (filtered in place: no caller reads its list after the pass);
	// they are planned only for the trace.
	kept := versions[:0]
	for _, v := range versions {
		plan := ev.plans[v.pi]
		v.empty = ev.emptyJoin(plan, v.occ)
		if v.empty && rec == nil {
			continue
		}
		v.vp = ev.computePlan(plan, v.occ)
		if rec != nil {
			rec.Orders = append(rec.Orders, ev.versionOrder(plan, v))
		}
		if !v.empty {
			kept = append(kept, v)
		}
	}
	versions = kept
	// The versions fill the evaluator's emission buffers in order,
	// reusing the storage earlier passes grew; bufs[:ran] hold this pass's.
	for len(ev.bufs) < len(versions) {
		ev.bufs = append(ev.bufs, emitBuf{})
	}
	bufs, ran := ev.bufs, 0
	var evalErr error
	for _, v := range versions {
		buf, err := ev.runVersion(ev.plans[v.pi], v, bufs[ran])
		if err != nil {
			evalErr = err // the pass fails; later versions are moot
			break
		}
		bufs[ran] = buf
		ran++
	}
	// Merge barrier: versions in order, emissions in the order their
	// version produced them. An errored version aborts the evaluation once
	// the versions before it have merged.
	if err := failpoint.Inject(FPMerge); err != nil {
		return err
	}
	for vi := range bufs[:ran] {
		plan := ev.plans[versions[vi].pi]
		buf := &bufs[vi]
		var just []FactRef
		for i := 0; i < buf.n; i++ {
			head := Tuple(buf.heads[i*buf.w : (i+1)*buf.w])
			if buf.justs != nil {
				just = buf.justs[i]
			}
			var err error
			if sink == nil {
				err = ev.insertDerived(plan, head, just, collectNext)
			} else {
				err = sink(plan, head, just)
			}
			if err != nil {
				return err
			}
		}
	}
	if evalErr != nil {
		return evalErr
	}
	// A cancellation that arrived during the merge is reported at the
	// latest here, keeping abort latency within one pass tail.
	return ev.checkCtx()
}

func (ev *evaluator) runSemiNaive() error {
	for level := 0; level <= ev.maxStrat; level++ {
		if err := ev.runSemiNaiveStratum(level); err != nil {
			return err
		}
	}
	return nil
}

// runSemiNaiveStratum runs the SemiNaive fixpoint for one stratum. Every
// pass (the startup pass and each delta iteration) is a barrier: rule
// versions read the relation state frozen at the start of the pass, their
// emissions merge at the end, and boolean-cut retirement is decided only
// between passes.
func (ev *evaluator) runSemiNaiveStratum(level int) error {
	// Startup pass: evaluate this stratum's rules against the full
	// relations (which contain lower strata and any derived-predicate
	// seeds); everything then in this stratum's relations becomes the
	// first delta.
	ev.stats.Iterations++
	var startup []version
	for pi, plan := range ev.plans {
		if plan.stratum == level && ev.active[pi] {
			startup = append(startup, version{pi: pi, occ: -1})
		}
	}
	if err := ev.runPass(startup, false, level, nil); err != nil {
		return err
	}
	// The first delta of each of the stratum's heads (retired rules'
	// included) takes over the storage its relation has so far, and the
	// relation continues in storage sized from its hint.
	clear(ev.delta)
	for _, plan := range ev.plans {
		s := plan.headSlot
		if rel := ev.rels[s]; plan.stratum == level && ev.delta[s] == nil && rel.Len() > 0 {
			hint := 0
			if s < len(ev.opt.sizeHints) {
				hint = ev.opt.sizeHints[s]
			}
			ev.delta[s] = rel.splitDelta(hint)
		}
	}
	ev.applyCut()
	return ev.propagate(level, nil)
}

// deltaVersions lists the semi-naive versions of one delta pass over a
// stratum: for every active rule, one version per body occurrence whose
// relation has a delta (base occurrences only ever have one under Update
// and Retract), in occurrence order — compile numbers the occurrences in
// body order. The list reuses the previous delta pass's storage.
func (ev *evaluator) deltaVersions(level int) []version {
	vs := ev.versBuf[:0]
	for pi, plan := range ev.plans {
		if !ev.active[pi] || plan.stratum != level {
			continue
		}
		for li := range plan.body {
			if lp := &plan.body[li]; lp.occ >= 0 && ev.delta[lp.rel] != nil {
				vs = append(vs, version{pi: pi, occ: lp.occ})
			}
		}
	}
	ev.versBuf = vs
	return vs
}

// hasDelta reports whether any relation has a non-empty delta.
func (ev *evaluator) hasDelta() bool {
	for _, d := range ev.delta {
		if d != nil {
			return true
		}
	}
	return false
}

// propagate runs delta passes over a stratum until no delta is left: the
// loop behind Eval's fixpoint, Update, and both propagating phases of
// Retract. The boolean cut applies at each barrier of an inserting
// propagation (nil sink) only: it asks whether a boolean head holds, and
// Retract's marking passes read the pre-deletion state, where retiring a
// rule would stop deletions from propagating through it.
func (ev *evaluator) propagate(level int, sink sink) error {
	for ev.hasDelta() {
		ev.stats.Iterations++
		if ev.stats.Iterations > ev.opt.MaxIterations {
			return ErrIterationLimit
		}
		if err := ev.collectPass(ev.deltaVersions(level), level, sink); err != nil {
			return err
		}
		if sink == nil {
			ev.applyCut()
		}
	}
	return nil
}

// collectPass runs one delta-collecting pass: the next deltas start
// empty, and once the pass has merged they become the deltas the following
// pass reads. The two slot arrays swap, so no pass allocates them, and the
// deltas the previous pass read — dead once it merged — are emptied into
// spare, so the deltas this pass collects reuse their arenas. Every delta
// is append-only, a stratum's first delta included (splitDelta), so every
// one is recycled, except under TrackProvenance, whose justifications keep
// views of the rows a pass read.
func (ev *evaluator) collectPass(versions []version, level int, sink sink) error {
	for s, d := range ev.next {
		if d != nil && ev.prov == nil {
			d.reset()
			ev.spare[s] = d
		}
		ev.next[s] = nil
	}
	if err := ev.runPass(versions, true, level, sink); err != nil {
		return err
	}
	ev.delta, ev.next = ev.next, ev.delta
	return nil
}

// applyCut retires boolean rules whose head already holds and cascades to
// rules that now feed nothing (Section 3.1). It is only ever called at
// pass barriers, so every version of a pass sees the same active rules.
func (ev *evaluator) applyCut() {
	if !ev.opt.BooleanCut {
		return
	}
	changed := false
	for pi, plan := range ev.plans {
		if ev.active[pi] && plan.boolHead && ev.rels[plan.headSlot].Len() > 0 {
			ev.active[pi] = false
			ev.stats.RulesRetired++
			ev.tc.Cut(pi, ev.stats.Iterations)
			changed = true
		}
	}
	if !changed {
		return
	}
	// Cascade: a predicate is needed only if it is reachable from the
	// query through the bodies of still-active rules (a recursive rule
	// must not keep its own head alive). Rules whose head is no longer
	// needed retire, which can unneed further predicates.
	needed := make([]bool, len(ev.rels))
	for {
		clear(needed)
		if ev.querySlot >= 0 {
			needed[ev.querySlot] = true
		}
		for grew := true; grew; {
			grew = false
			for pi, plan := range ev.plans {
				if !ev.active[pi] || !needed[plan.headSlot] {
					continue
				}
				for _, lp := range plan.body {
					if !needed[lp.rel] {
						needed[lp.rel] = true
						grew = true
					}
				}
			}
		}
		retired := false
		for pi, plan := range ev.plans {
			if ev.active[pi] && !needed[plan.headSlot] {
				ev.active[pi] = false
				ev.stats.RulesRetired++
				ev.tc.Cut(pi, ev.stats.Iterations)
				retired = true
			}
		}
		if !retired {
			return
		}
	}
}
