package grammar

import (
	"fmt"
	"slices"
	"sort"

	"existdlog/internal/ast"
	"existdlog/internal/engine"
)

// Linearity classifies a chain grammar's productions.
type Linearity int

const (
	// NotLinear grammars have some production with a nonterminal in a
	// middle position, or more than one nonterminal.
	NotLinear Linearity = iota
	// RightLinear productions have at most one nonterminal, in last
	// position (the grammar generates a regular language).
	RightLinear
	// LeftLinear productions have at most one nonterminal, in first
	// position (also regular).
	LeftLinear
	// Acyclic grammars have no nonterminals on any right-hand side beyond
	// what both linear forms allow (e.g. purely terminal productions);
	// they are trivially both left- and right-linear.
	Acyclic
)

// Classify inspects the productions of g. A grammar that is both left- and
// right-linear (no production mentions a nonterminal at all) is Acyclic.
// Theorem 3.3: a binary chain program has an equivalent monadic chain
// program iff its language is regular; linear grammars are the decidable
// regular core this package constructs monadic programs for.
func Classify(g *Grammar) Linearity {
	left, right := true, true
	sawNT := false
	for _, prods := range g.Productions {
		for _, rhs := range prods {
			for i, sym := range rhs {
				if !g.NonTerminal(sym) {
					continue
				}
				sawNT = true
				if i != 0 {
					left = false
				}
				if i != len(rhs)-1 {
					right = false
				}
			}
			nts := 0
			for _, sym := range rhs {
				if g.NonTerminal(sym) {
					nts++
				}
			}
			if nts > 1 {
				left, right = false, false
			}
		}
	}
	switch {
	case !sawNT:
		return Acyclic
	case right:
		return RightLinear
	case left:
		return LeftLinear
	default:
		return NotLinear
	}
}

// Reverse returns the grammar generating the reversal of g's language
// (every right-hand side reversed). Reversing a left-linear grammar yields
// a right-linear one.
func Reverse(g *Grammar) *Grammar {
	out := &Grammar{
		Start:       g.Start,
		Productions: make(map[string][][]string, len(g.Productions)),
		Terminals:   g.Terminals,
	}
	for nt, prods := range g.Productions {
		for _, rhs := range prods {
			rev := make([]string, len(rhs))
			for i, s := range rhs {
				rev[len(rhs)-1-i] = s
			}
			out.Productions[nt] = append(out.Productions[nt], rev)
		}
	}
	return out
}

// NFA is a nondeterministic finite automaton over terminal symbols.
type NFA struct {
	Start     int
	Accept    map[int]bool
	NumStates int
	// Trans[s] maps a terminal symbol to successor states.
	Trans []map[string][]int
}

// NFAFromRightLinear builds the NFA recognizing L(g) for a right-linear
// chain grammar: states are nonterminals plus intermediate states for
// multi-terminal productions, plus one accepting state.
func NFAFromRightLinear(g *Grammar) (*NFA, error) {
	if c := Classify(g); c != RightLinear && c != Acyclic {
		return nil, fmt.Errorf("grammar: not right-linear")
	}
	n := &NFA{Accept: map[int]bool{}}
	stateOf := map[string]int{}
	newState := func() int {
		n.Trans = append(n.Trans, map[string][]int{})
		n.NumStates++
		return n.NumStates - 1
	}
	stateFor := func(nt string) int {
		if s, ok := stateOf[nt]; ok {
			return s
		}
		s := newState()
		stateOf[nt] = s
		return s
	}
	accept := newState()
	n.Accept[accept] = true
	n.Start = stateFor(g.Start)

	nts := make([]string, 0, len(g.Productions))
	for nt := range g.Productions {
		nts = append(nts, nt)
	}
	sort.Strings(nts)
	for _, nt := range nts {
		for _, rhs := range g.Productions[nt] {
			cur := stateFor(nt)
			last := len(rhs) - 1
			tailNT := g.NonTerminal(rhs[last])
			end := last
			if tailNT {
				end = last - 1
			}
			if end < 0 {
				// Unit production A → B: an ε-move; fold by copying B's
				// transitions later is complex — reject (chain grammars
				// from chain programs always consume a terminal or carry
				// bodies of length ≥ 1 with at least the structure below).
				return nil, fmt.Errorf("grammar: unit production %s → %s not supported", nt, rhs[0])
			}
			for i := 0; i <= end; i++ {
				var next int
				switch {
				case i == end && tailNT:
					next = stateFor(rhs[last])
				case i == end:
					next = accept
				default:
					next = newState()
				}
				n.Trans[cur][rhs[i]] = append(n.Trans[cur][rhs[i]], next)
				cur = next
			}
		}
	}
	return n, nil
}

// Accepts reports whether the NFA accepts the string.
func (n *NFA) Accepts(s []string) bool {
	cur := map[int]bool{n.Start: true}
	for _, sym := range s {
		next := map[int]bool{}
		for st := range cur {
			for _, t := range n.Trans[st][sym] {
				next[t] = true
			}
		}
		cur = next
		if len(cur) == 0 {
			return false
		}
	}
	for st := range cur {
		if n.Accept[st] {
			return true
		}
	}
	return false
}

// MonadicProgram is the result of the Theorem 3.3 construction: a monadic
// chain program equivalent to a regular binary chain program under an
// existential query.
type MonadicProgram struct {
	Program *ast.Program
	// AnswerPred is the unary predicate holding the query answer.
	AnswerPred string
}

// MonadicFromChain builds, for a binary chain program whose grammar is
// left- or right-linear, the equivalent monadic chain program for the
// existential query given by adornment "dn" (all Y such that some X
// reaches Y along a word of the language) or "nd" (all X reaching some Y).
// This is the constructive direction of Theorem 3.3; the converse
// (deciding whether a non-regular chain program has a monadic equivalent)
// is undecidable.
func MonadicFromChain(p *ast.Program, adornment ast.Adornment) (*MonadicProgram, error) {
	if adornment != "dn" && adornment != "nd" {
		return nil, fmt.Errorf("grammar: adornment must be dn or nd, got %q", adornment)
	}
	g, err := FromChainProgram(p)
	if err != nil {
		return nil, err
	}
	return monadic(g, adornment, ast.NewAtom("ans", ast.V("V")), "m", false)
}

// monadic dispatches on the grammar's linearity. query is the unary
// answer atom of the built program; seeded makes the construction seeded
// (see monadicFromRightLinear).
func monadic(g *Grammar, adornment ast.Adornment, query ast.Atom, state string, seeded bool) (*MonadicProgram, error) {
	switch Classify(g) {
	case RightLinear, Acyclic:
		return monadicFromRightLinear(g, adornment, query, state, seeded)
	case LeftLinear:
		// A path X→Y labeled w exists iff a path Y→X labeled rev(w) exists
		// over the reversed edge relations, and rev(L) is right-linear for
		// left-linear L: build the construction for the reversed grammar
		// with the flipped adornment, then swap the arguments of every
		// base literal in the result.
		mp, err := monadicFromRightLinear(Reverse(g), flip(adornment), query, state, seeded)
		if err != nil {
			return nil, err
		}
		for ri := range mp.Program.Rules {
			for bi := range mp.Program.Rules[ri].Body {
				b := &mp.Program.Rules[ri].Body[bi]
				if g.Terminals[b.Key()] && b.Arity() == 2 {
					b.Args[0], b.Args[1] = b.Args[1], b.Args[0]
				}
			}
		}
		return mp, nil
	default:
		return nil, fmt.Errorf("grammar: not linear; Theorem 3.3 gives no effective construction (regularity is undecidable)")
	}
}

// monadicFromRightLinear builds the Theorem 3.3 program for a right-linear
// grammar: state s of the NFA becomes the unary predicate state+s, and the
// answer rules derive query from the answer states. A seeded program
// starts the path at the node in SeedPred (dn: in place of X) or ends it
// there (nd: in place of Y), so the states hold only the nodes reachable
// from the seed, or reaching it, instead of every node of the graph. A
// seeded program is built from the minimal DFA instead when that has fewer
// derived predicates: every one is a relation the evaluation fills.
func monadicFromRightLinear(g *Grammar, adornment ast.Adornment, query ast.Atom, state string, seeded bool) (*MonadicProgram, error) {
	nfa, err := NFAFromRightLinear(g)
	if err != nil {
		return nil, err
	}
	prog := monadicRules(nfa, adornment, query, state, seeded)
	if seeded {
		alphabet := make([]string, 0, len(g.Terminals))
		for t := range g.Terminals {
			alphabet = append(alphabet, t)
		}
		dfa := Minimize(Determinize(nfa, alphabet)).nfa()
		if alt := monadicRules(dfa, adornment, query, state, seeded); len(alt.Derived) < len(prog.Derived) {
			prog = alt
		}
	}
	return &MonadicProgram{Program: prog, AnswerPred: prog.Query.Key()}, nil
}

// monadicRules writes the rules of monadicFromRightLinear over any
// automaton without ε-moves. The answer states are the accepting states
// (dn) or the start state (nd): the answer is the union of their
// relations. The unseeded program copies each into query, as
// query(Y) :- m_s(Y). A seeded program with one answer state whose
// relation some rule defines has no answer rule at all: its query is that
// state's atom, m_s(Y) or m_s(X), whose relation already holds the
// answers; it keeps the copying rules only over two or more.
func monadicRules(nfa *NFA, adornment ast.Adornment, query ast.Atom, state string, seeded bool) *ast.Program {
	var rules []ast.Rule
	pred := func(s int) string { return fmt.Sprintf("%s%d", state, s) }
	from, to := ast.V("X"), ast.V("Y")
	var seeds []ast.Atom // the SeedPred literal, when seeded
	if seeded {
		seed := ast.V("K")
		if adornment == "dn" {
			from = seed
		} else {
			to = seed
		}
		seeds = []ast.Atom{ast.NewAtom(SeedPred, seed)}
	}
	withSeed := func(body ...ast.Atom) []ast.Atom {
		return append(slices.Clone(seeds), body...)
	}

	var answerStates []int
	v := ast.V("Y")
	if adornment == "dn" {
		// m_s(Y): some X reaches Y along a prefix driving the NFA from the
		// start state to s. Seeds fold the first transition to avoid a
		// domain predicate (chain languages have no ε).
		for s := 0; s < nfa.NumStates; s++ {
			for sym, nexts := range nfa.Trans[s] {
				for _, s2 := range nexts {
					if s == nfa.Start {
						rules = append(rules, ast.NewRule(
							ast.NewAtom(pred(s2), ast.V("Y")),
							withSeed(ast.NewAtom(sym, from, ast.V("Y")))...))
					}
					rules = append(rules, ast.NewRule(
						ast.NewAtom(pred(s2), ast.V("Y")),
						ast.NewAtom(pred(s), ast.V("Z")), ast.NewAtom(sym, ast.V("Z"), ast.V("Y"))))
				}
			}
		}
		for s := range nfa.Accept {
			answerStates = append(answerStates, s)
		}
		slices.Sort(answerStates)
	} else {
		// m_s(X): X starts a path whose word drives the NFA from s to an
		// accepting state.
		for s := 0; s < nfa.NumStates; s++ {
			for sym, nexts := range nfa.Trans[s] {
				for _, s2 := range nexts {
					if nfa.Accept[s2] {
						rules = append(rules, ast.NewRule(
							ast.NewAtom(pred(s), ast.V("X")),
							withSeed(ast.NewAtom(sym, ast.V("X"), to))...))
					}
					rules = append(rules, ast.NewRule(
						ast.NewAtom(pred(s), ast.V("X")),
						ast.NewAtom(sym, ast.V("X"), ast.V("Z")), ast.NewAtom(pred(s2), ast.V("Z"))))
				}
			}
		}
		answerStates, v = []int{nfa.Start}, ast.V("X")
	}
	rules = pruneUndefined(rules, nfa.NumStates, pred)
	// Only a defined answer state can hold an answer.
	defined := make(map[string]bool, len(rules))
	for _, r := range rules {
		defined[r.Head.Key()] = true
	}
	live := slices.DeleteFunc(slices.Clone(answerStates), func(s int) bool { return !defined[pred(s)] })
	if seeded && len(live) == 1 {
		sortRules(rules)
		return ast.NewProgram(ast.NewAtom(pred(live[0]), v), rules...)
	}
	if seeded {
		query = ast.NewAtom(query.Pred, v)
	}
	for _, s := range live {
		rules = append(rules, ast.NewRule(ast.NewAtom(query.Pred, v), ast.NewAtom(pred(s), v)))
	}
	sortRules(rules)
	return ast.NewProgram(query, rules...)
}

// pruneUndefined drops every rule whose body reads a state predicate that
// no rule defines: the state transitions out of a state nothing enters
// (the start state of a seeded program, whose first transitions the seed
// rules fold in) never fire. A dropped rule can leave its own head state
// undefined, so the pruning repeats until nothing more is dropped.
func pruneUndefined(rules []ast.Rule, states int, pred func(int) string) []ast.Rule {
	isState := make(map[string]bool, states)
	for s := 0; s < states; s++ {
		isState[pred(s)] = true
	}
	for {
		defined := make(map[string]bool)
		for _, r := range rules {
			defined[r.Head.Key()] = true
		}
		kept := rules[:0]
		for _, r := range rules {
			if !slices.ContainsFunc(r.Body, func(b ast.Atom) bool { return isState[b.Key()] && !defined[b.Key()] }) {
				kept = append(kept, r)
			}
		}
		if len(kept) == len(rules) {
			return kept
		}
		rules = kept
	}
}

// SeedPred is the unary base relation a seeded program starts from:
// evaluate SeedChainGoal's program over the facts plus the one row
// SeedPred(k), for k the query's constant. The quote keeps the name out
// of the source language, so no source relation can collide with it.
const SeedPred = "seed'"

// SeedChainGoal rewrites p for its query when the query binds exactly one
// argument of a binary derived predicate q and the rules reachable from q
// form a right-linear, left-linear or acyclic chain program (Theorem 3.3).
// The result is the monadic program seeded from SeedPred: its states hold
// the nodes reachable from the seed (or reaching it), not the node pairs
// of q. Its Query is unary: the automaton's one answer state, m(Y) for
// q(k,Y) and m(X) for q(X,k), or, when there are several, q'(Y) or q'(X)
// defined by their union. Once SeedPred holds k, the Query's rows are the
// answers of q's query without their constant: col is the column of q's
// query that k fills, and writing k into that column of every row gives
// exactly the rows q's query selects. The returned rules and Query hold
// no constant, so they serve every k: only the SeedPred row names it.
// Every generated predicate name contains a quote, which the lexer never
// accepts inside an identifier, so none can collide with a source
// predicate.
//
// ok is false when the rewrite does not apply: the query has no constant,
// two, or an anonymous position; a reachable rule is not a chain rule or
// has negation; a terminal is a builtin; or the grammar is not linear or
// has a unit production. The rewrite never reads q itself, so it is sound
// only because derived relations have no facts of their own: the parser
// and the server's store both reject such facts.
func SeedChainGoal(p *ast.Program) (prog *ast.Program, col int, ok bool) {
	q := p.Query
	if q.Arity() != 2 || !p.Derived[q.Key()] {
		return nil, 0, false
	}
	bound := -1
	for i, t := range q.Args {
		switch {
		case t.IsAnon():
			return nil, 0, false
		case t.Kind == ast.Constant && bound >= 0:
			return nil, 0, false
		case t.Kind == ast.Constant:
			bound = i
		}
	}
	if bound < 0 {
		return nil, 0, false
	}

	// The rules reachable from q: positive, over stored terminals, and
	// (checked by FromChainProgram) chain rules.
	var rules []ast.Rule
	seen := map[string]bool{q.Key(): true}
	for queue := []string{q.Key()}; len(queue) > 0; queue = queue[1:] {
		for _, ri := range p.RulesFor(queue[0]) {
			r := p.Rules[ri]
			for _, b := range r.Body {
				// A builtin is no stored edge, and the monadic rules
				// would call it with an unbound argument.
				if b.Negated || engine.IsBuiltin(b.Pred, b.Arity()) {
					return nil, 0, false
				}
				if p.Derived[b.Key()] && !seen[b.Key()] {
					seen[b.Key()] = true
					queue = append(queue, b.Key())
				}
			}
			rules = append(rules, r)
		}
	}
	g, err := FromChainProgram(&ast.Program{Rules: rules, Query: q, Derived: p.Derived})
	if err != nil {
		return nil, 0, false
	}
	adornment := ast.Adornment("dn")
	if bound == 1 {
		adornment = "nd"
	}
	name := q.Pred + "'"
	mp, err := monadic(g, adornment, ast.NewAtom(name, ast.V("V")), name, true)
	if err != nil {
		return nil, 0, false
	}
	return mp.Program, bound, true
}

func flip(a ast.Adornment) ast.Adornment {
	if a == "dn" {
		return "nd"
	}
	return "dn"
}

func sortRules(rules []ast.Rule) {
	sort.Slice(rules, func(i, j int) bool { return rules[i].String() < rules[j].String() })
}
