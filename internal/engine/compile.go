package engine

import (
	"context"
	"fmt"
	"maps"
	"slices"
	"time"

	"existdlog/internal/ast"
	"existdlog/internal/ierr"
	"existdlog/internal/trace"
)

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

// argRef is one argument of a compiled literal or head: a rule constant,
// constIdx indexing Compiled.consts (and the evaluator's interned ids,
// evaluator.consts), or a variable's slot in the rule's bindings.
type argRef struct {
	isConst  bool
	constIdx int
	slot     int
}

type literalPlan struct {
	key string
	// rel is the relation slot of key (see Compiled.slotOf).
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

// rulePlan is one rule compiled for evaluation. It is immutable once
// built, so concurrent evaluations of one Compiled read it together.
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
	// memoAt is the index of this rule's startup version in the
	// evaluator's plan memo (evaluator.memo): the version reading delta
	// occurrence occ has memo head memoAt+occ+1.
	memoAt int
}

// versionPlan is one rule version's join plan: the order its body
// literals are joined in, and the bound columns that order gives each
// step. It is a function of the order alone, so it is immutable once
// built and shared by every pass whose planner picks the same order:
// each (rule, occurrence) keeps the plans it has built in the evaluator's
// memo, and at each pass barrier the greedy order, computed from live
// sizes, selects one (computePlan).
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

// pred is one relation slot's predicate key and arity, and the atom that
// first mentioned the key, named when a database disagrees on its arity.
type pred struct {
	key   string
	arity int
	first ast.Atom
}

// Compiled is a program compiled for evaluation: its relation slots,
// rule texts, strata and rule plans. It depends on the program alone, so
// one Compiled serves any number of evaluations over any databases,
// concurrent ones included: an evaluation reads it and never writes it.
// Two things still come from each evaluation's database, and bind
// settles them there: the interned ids of the rule constants, and
// whether a builtin key (succ, lt, neq) is the builtin or, when the
// database holds a relation under it, that relation.
type Compiled struct {
	prog *ast.Program
	// slotOf gives every predicate key the program mentions a dense
	// relation slot; preds[s] describes slot s.
	slotOf map[string]int
	preds  []pred
	// texts are the rules' texts, by rule index, for the trace.
	texts []string
	// consts are the rule constants, in the order the plans first use them
	// ("_", the anonymous head constant, is consts[0]); constOf inverts it.
	// argRef.constIdx indexes consts, and every evaluation interns them
	// into its own database.
	consts  []string
	constOf map[string]int
	strata  map[string]int
	// querySlot is the query's slot, -1 when the program has none.
	querySlot int
	maxStrat  int
	// builtins are the keys plans reads as builtins, assuming the database
	// holds no relation under them.
	builtins []string
	plans    *planSet
}

// planSet is a program's rule plans under one reading of its builtin
// keys, and the sizes of the planner storage an evaluation of them
// needs.
type planSet struct {
	plans []*rulePlan
	// nMemo counts the rule versions, one memo head each; maxBody and
	// maxSlots size the greedy's scratch.
	nMemo, maxBody, maxSlots int
	// err rejects every evaluation under this reading: a negated builtin.
	err error
}

// Compile validates p and compiles it for evaluation. The Compiled keeps
// p, which must not change while it is in use.
func Compile(p *ast.Program) (c *Compiled, err error) {
	defer ierr.Rescue(&err)
	if err := p.Validate(); err != nil {
		return nil, err
	}
	c = &Compiled{
		prog:      p,
		slotOf:    make(map[string]int),
		texts:     make([]string, len(p.Rules)),
		consts:    []string{"_"},
		constOf:   map[string]int{"_": 0},
		querySlot: -1,
	}
	for i := range p.Rules {
		c.texts[i] = p.Rules[i].String()
	}
	// Give every predicate a slot, recording its arity. Validate has
	// rejected a predicate used with two arities; the database's arities
	// are checked by bind.
	note := func(a ast.Atom) {
		if _, ok := c.slotOf[a.Key()]; !ok {
			c.slotOf[a.Key()] = len(c.preds)
			c.preds = append(c.preds, pred{key: a.Key(), arity: a.Arity(), first: a})
		}
	}
	constant := func(t ast.Term) {
		if _, ok := c.constOf[t.Name]; t.Kind == ast.Constant && !ok {
			c.constOf[t.Name] = len(c.consts)
			c.consts = append(c.consts, t.Name)
		}
	}
	for _, r := range p.Rules {
		note(r.Head)
		for _, b := range r.Body {
			note(b)
			if key := b.Key(); !c.prog.Derived[key] && IsBuiltin(b.Pred, b.Arity()) && !slices.Contains(c.builtins, key) {
				c.builtins = append(c.builtins, key)
			}
			for _, t := range b.Args {
				constant(t)
			}
		}
		for _, t := range r.Head.Args {
			constant(t)
		}
	}
	if p.Query.Pred != "" {
		note(p.Query)
		c.querySlot = c.slotOf[p.Query.Key()]
	}
	// Stratify for negation-as-failure; positive programs land in one
	// stratum.
	if c.strata, err = Stratify(p); err != nil {
		return nil, err
	}
	for _, r := range p.Rules {
		c.maxStrat = max(c.maxStrat, c.strata[r.Head.Key()])
	}
	c.plans = c.buildPlans(nil)
	return c, nil
}

// buildPlans builds the rule plans, reading each key in shadow as a
// relation even where its name and arity are a builtin's.
func (c *Compiled) buildPlans(shadow map[string]bool) *planSet {
	ps := &planSet{}
	for i, r := range c.prog.Rules {
		plan := &rulePlan{idx: i, headSlot: c.slotOf[r.Head.Key()], boolHead: r.Head.Arity() == 0, stratum: c.strata[r.Head.Key()]}
		slots := make(map[string]int)
		refFor := func(t ast.Term) argRef {
			if t.Kind == ast.Constant {
				return argRef{isConst: true, constIdx: c.constOf[t.Name]}
			}
			s, ok := slots[t.Name]
			if !ok {
				s = len(slots)
				slots[t.Name] = s
			}
			return argRef{slot: s}
		}
		// Positive literals first (they bind the variables), negated
		// literals moved to the end (safety guarantees their variables are
		// bound by then); relative order within each group is preserved.
		var negatedLits []literalPlan
		for _, b := range r.Body {
			key := b.Key()
			lp := literalPlan{key: key, rel: c.slotOf[key], occ: -1, negated: b.Negated}
			lp.derived = c.prog.Derived[key]
			if !lp.derived && !shadow[key] {
				lp.builtin = builtinFor(b.Pred, b.Arity())
			}
			if b.Negated && lp.builtin != notBuiltin {
				ps.err = fmt.Errorf("rule %d: negated builtin %s", i+1, b)
				return ps
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
		// Head: Validate has bound every head variable in the body but the
		// anonymous ones, which evaluate to the reserved constant "_".
		for _, t := range r.Head.Args {
			if _, ok := slots[t.Name]; t.Kind == ast.Variable && !ok {
				plan.head = append(plan.head, argRef{isConst: true, constIdx: c.constOf["_"]})
				continue
			}
			plan.head = append(plan.head, refFor(t))
		}
		plan.slots = len(slots)
		plan.memoAt = ps.nMemo
		ps.nMemo += plan.nDeltas + 1
		ps.maxBody = max(ps.maxBody, len(plan.body))
		ps.maxSlots = max(ps.maxSlots, plan.slots)
		ps.plans = append(ps.plans, plan)
	}
	return ps
}

// plansFor returns the plans for an evaluation over db: c.plans, unless
// db holds a relation under one of the builtin keys, which a literal then
// reads like any other relation. Those plans are built for this
// evaluation alone, as a fresh compile against db would build them.
func (c *Compiled) plansFor(db *Database) *planSet {
	var shadow map[string]bool
	for _, key := range c.builtins {
		if db.Has(key) {
			if shadow == nil {
				shadow = make(map[string]bool)
			}
			shadow[key] = true
		}
	}
	if shadow == nil {
		return c.plans
	}
	return c.buildPlans(shadow)
}

// Run evaluates c over db like EvalContext, in place: db itself gains
// the derived relations and becomes Result.DB. A caller that must keep
// db unchanged passes db.Clone(), as EvalContext does.
func (c *Compiled) Run(ctx context.Context, db *Database, opt Options) (res *Result, err error) {
	defer ierr.Rescue(&err)
	ev, err := c.bind(ctx, db, opt, nil)
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

// newEvaluator compiles p and binds it to a private clone of db. Every
// entry point that takes a program builds its evaluator here; Compiled.Run
// binds a program compiled earlier the same way, so all of them share one
// compiler and one set of defaults.
func newEvaluator(ctx context.Context, p *ast.Program, db *Database, opt Options, m *maintenance) (*evaluator, error) {
	c, err := Compile(p)
	if err != nil {
		return nil, err
	}
	return c.bind(ctx, db.Clone(), opt, m)
}

// bind prepares one evaluation of c over out, which becomes the result
// database: it checks out's arities against the program's, materializes
// the derived relations and every relation a body reads, interns the rule
// constants, and allocates the evaluator's per-run state. An incremental
// entry point (m non-nil, out the database being maintained) additionally
// gets its restrictions checked and its provenance carried forward.
func (c *Compiled) bind(ctx context.Context, out *Database, opt Options, m *maintenance) (*evaluator, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if opt.MaxIterations == 0 {
		opt.MaxIterations = 1 << 20
	}
	if m != nil {
		if c.prog.HasNegation() {
			return nil, fmt.Errorf("engine: incremental %s under negation is not supported (re-evaluate)", m.noun)
		}
		for _, key := range m.delta.Keys() {
			if c.prog.Derived[key] {
				return nil, fmt.Errorf("engine: %s facts for derived predicate %s", m.verb, key)
			}
		}
	}
	// A conflict between the program and the database is rejected here
	// with the typed arity error rather than discovered as a panic
	// mid-evaluation.
	for _, pr := range c.preds {
		if err := out.CheckArity(pr.key, pr.arity); err != nil {
			return nil, fmt.Errorf("atom %s: %w", pr.first, err)
		}
	}
	ps := c.plansFor(out)
	if ps.err != nil {
		return nil, ps.err
	}
	// Materialize derived relations, so that empty derived predicates
	// exist in the output, and every non-builtin body relation, so that
	// relation lookup during a pass is read-only. Existing relations are
	// left untouched.
	for _, pr := range c.preds {
		if c.prog.Derived[pr.key] {
			out.Relation(pr.key, pr.arity)
		}
	}
	consts := make([]int32, len(c.consts))
	for i, name := range c.consts {
		consts[i] = out.Syms.Intern(name)
	}
	for _, plan := range ps.plans {
		for i := range plan.body {
			lp := &plan.body[i]
			if lp.builtin == notBuiltin && !out.Has(lp.key) {
				out.Relation(lp.key, len(lp.args))
			}
		}
	}
	ev := &evaluator{
		opt:       opt,
		ctx:       ctx,
		done:      ctx.Done(),
		out:       out,
		plans:     ps.plans,
		slotOf:    c.slotOf,
		preds:     c.preds[:len(c.preds):len(c.preds)],
		consts:    consts,
		querySlot: c.querySlot,
		maxStrat:  c.maxStrat,
		memo:      make([]*versionPlan, ps.nMemo),
		planOrder: make([]int, 0, ps.maxBody),
		tc:        trace.NewCollector(c.texts),
	}
	if opt.PassTimes && opt.Trace {
		ev.passClock = time.Now()
	}
	// The planner's storage, allocated once: a memo head per rule version
	// and the greedy's scratch, sized for the longest body and the most
	// slots, so a pass whose orders are all memoized plans without
	// allocating. The rules' active flags share the allocation.
	nr := len(ps.plans)
	flags := make([]bool, nr+ps.maxBody+ps.maxSlots)
	ev.active, ev.planUsed, ev.planBound = flags[:nr:nr], flags[nr:nr+ps.maxBody:nr+ps.maxBody], flags[nr+ps.maxBody:]
	for i := range ev.active {
		ev.active[i] = true
	}
	n := len(c.preds)
	all := make([]*Relation, 4*n)
	ev.rels, ev.delta, ev.next, ev.spare = all[:n:n], all[n:2*n:2*n], all[2*n:3*n:3*n], all[3*n:]
	for s, pr := range c.preds {
		ev.rels[s], _ = out.Lookup(pr.key)
	}
	if opt.TrackProvenance {
		ev.prov = make([]*provSet, n)
		if m != nil {
			// prev came from the same program, so every key with recorded
			// provenance (a rule head) has a slot.
			for k, ps := range m.prov {
				if s, ok := c.slotOf[k]; ok {
					ev.prov[s] = ps.clone()
				}
			}
		}
	}
	return ev, nil
}

// slotFor returns key's relation slot, first giving one to a base key the
// program never mentions (an Update or Retract seed), bound to out's
// relation of that arity. The first new key copies the slot map, which
// the evaluator shares with its Compiled until then.
func (ev *evaluator) slotFor(key string, arity int) int {
	rel := ev.out.Relation(key, arity)
	s, ok := ev.slotOf[key]
	if !ok {
		if !ev.ownSlots {
			ev.slotOf, ev.ownSlots = maps.Clone(ev.slotOf), true
		}
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
