// Package ast defines the abstract syntax of Datalog programs as used by
// the existential-query optimizer: terms, atoms, rules, queries, and
// adornments.
//
// The representation follows the paper's conventions (Ramakrishnan, Beeri,
// Krishnamurthy, "Optimizing Existential Datalog Queries", PODS 1988,
// Section 1.1): a rule is
//
//	p0(X̄0) :- p1(X̄1), ..., pn(X̄n)
//
// where each argument is a variable or a constant. Adorned predicates p^a
// (Section 2) are modeled by the Atom.Adornment field; an adorned predicate
// is a distinct predicate from its unadorned base and from other adorned
// versions of the same base, so predicate identity is the pair
// (Pred, Adornment), rendered as "p@nd".
package ast

import (
	"fmt"
	"sort"
	"strings"
)

// TermKind discriminates variables from constants.
type TermKind uint8

const (
	// Variable is a logic variable (upper-case initial, or "_").
	Variable TermKind = iota
	// Constant is an uninterpreted constant (lower-case initial or numeral).
	Constant
)

// Term is a variable or a constant appearing as a predicate argument.
// The zero value is the anonymous variable "_".
type Term struct {
	Kind TermKind
	Name string
}

// V returns a variable term with the given name.
func V(name string) Term { return Term{Kind: Variable, Name: name} }

// C returns a constant term with the given name.
func C(name string) Term { return Term{Kind: Constant, Name: name} }

// IsAnon reports whether t is the anonymous variable "_" (or an
// auto-generated anonymous variable "_Gn" produced by the parser).
func (t Term) IsAnon() bool {
	return t.Kind == Variable && (t.Name == "" || t.Name == "_" || strings.HasPrefix(t.Name, "_"))
}

// String renders the term in source syntax.
func (t Term) String() string {
	if t.Kind == Variable && t.Name == "" {
		return "_"
	}
	return t.Name
}

// Adornment is a string over the alphabet {'n','d'} (needed / don't-care,
// Section 2 of the paper) or {'b','f'} (bound / free, used by the magic-sets
// rewriting, which the paper treats as orthogonal). The empty adornment
// denotes an unadorned predicate.
type Adornment string

// CountN returns the number of 'n' (or 'b') positions in a.
func (a Adornment) CountN() int {
	n := 0
	for _, c := range a {
		if c == 'n' || c == 'b' {
			n++
		}
	}
	return n
}

// Valid reports whether a is empty or wholly over one of the two adornment
// alphabets.
func (a Adornment) Valid() bool {
	nd, bf := true, true
	for _, c := range a {
		switch c {
		case 'n', 'd':
			bf = false
		case 'b', 'f':
			nd = false
		default:
			return false
		}
	}
	return nd || bf
}

// Covers reports whether adornment a1 covers a, per Section 5 of the paper:
// both have the same length and each 'n' in a corresponds to an 'n' in a1.
// (Don't-care positions of a may be 'n' in a1.) Intuitively every tuple of
// p^a1 yields, by projection, a tuple of p^a.
func (a1 Adornment) Covers(a Adornment) bool {
	if len(a1) != len(a) {
		return false
	}
	for i := range a {
		if a[i] == 'n' && a1[i] != 'n' {
			return false
		}
	}
	return true
}

// Atom is a predicate occurrence: a (possibly adorned) predicate name
// applied to argument terms. Arity-0 atoms model the boolean predicates
// introduced by the connected-component rewrite (Section 3.1). Negated
// marks a negative body literal ("not p(X)"); the paper's Section 6 names
// negation as a generalization direction, and the engine evaluates it
// under stratified semantics.
type Atom struct {
	Pred      string
	Adornment Adornment
	Args      []Term
	Negated   bool
}

// NewAtom builds an unadorned atom.
func NewAtom(pred string, args ...Term) Atom {
	return Atom{Pred: pred, Args: args}
}

// NewAdorned builds an adorned atom p^a(args...).
func NewAdorned(pred string, a Adornment, args ...Term) Atom {
	return Atom{Pred: pred, Adornment: a, Args: args}
}

// Key returns the predicate identity "pred" or "pred@adornment". Two atoms
// with the same Key refer to the same relation.
func (a Atom) Key() string {
	if a.Adornment == "" {
		return a.Pred
	}
	return a.Pred + "@" + string(a.Adornment)
}

// Arity returns the number of arguments.
func (a Atom) Arity() int { return len(a.Args) }

// IsGround reports whether the atom contains no variables.
func (a Atom) IsGround() bool {
	for _, t := range a.Args {
		if t.Kind == Variable {
			return false
		}
	}
	return true
}

// Clone returns a deep copy of the atom.
func (a Atom) Clone() Atom {
	args := make([]Term, len(a.Args))
	copy(args, a.Args)
	return Atom{Pred: a.Pred, Adornment: a.Adornment, Args: args, Negated: a.Negated}
}

// BindConstants returns a copy of a whose constants are replaced, in
// order, by those of goal, which must have at least as many. It moves a
// query the optimizer built for one goal onto another goal of the same
// binding pattern: the optimized query keeps exactly the goal's
// constants, in goal order, since a constant is always a needed position.
func (a Atom) BindConstants(goal Atom) Atom {
	out, j := a.Clone(), 0
	for i, t := range out.Args {
		if t.Kind != Constant {
			continue
		}
		for goal.Args[j].Kind != Constant {
			j++
		}
		out.Args[i] = goal.Args[j]
		j++
	}
	return out
}

// Equal reports structural equality.
func (a Atom) Equal(b Atom) bool {
	if a.Pred != b.Pred || a.Adornment != b.Adornment || a.Negated != b.Negated ||
		len(a.Args) != len(b.Args) {
		return false
	}
	for i := range a.Args {
		if a.Args[i] != b.Args[i] {
			return false
		}
	}
	return true
}

// String renders the atom in source syntax, e.g. "a@nd(X,Y)", "b2", or
// "not p(X)".
func (a Atom) String() string {
	var sb strings.Builder
	if a.Negated {
		sb.WriteString("not ")
	}
	sb.WriteString(a.Pred)
	if a.Adornment != "" {
		sb.WriteByte('@')
		sb.WriteString(string(a.Adornment))
	}
	if len(a.Args) > 0 {
		sb.WriteByte('(')
		for i, t := range a.Args {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(t.String())
		}
		sb.WriteByte(')')
	}
	return sb.String()
}

// Rule is a Horn rule Head :- Body. An empty body denotes a fact (ground
// facts belong in the EDB, but unit facts are permitted for the frozen
// databases used by the uniform-equivalence tests).
type Rule struct {
	Head Atom
	Body []Atom
}

// NewRule builds a rule.
func NewRule(head Atom, body ...Atom) Rule {
	return Rule{Head: head, Body: body}
}

// Clone returns a deep copy of the rule.
func (r Rule) Clone() Rule {
	body := make([]Atom, len(r.Body))
	for i := range r.Body {
		body[i] = r.Body[i].Clone()
	}
	return Rule{Head: r.Head.Clone(), Body: body}
}

// Equal reports structural equality of rules.
func (r Rule) Equal(s Rule) bool {
	if !r.Head.Equal(s.Head) || len(r.Body) != len(s.Body) {
		return false
	}
	for i := range r.Body {
		if !r.Body[i].Equal(s.Body[i]) {
			return false
		}
	}
	return true
}

// IsUnit reports whether r is a unit rule in the paper's Section 5 sense:
// the body is a single literal. (The paper composes unit rules whose head
// and body literal are derived predicates; callers impose any further
// conditions they need.)
func (r Rule) IsUnit() bool { return len(r.Body) == 1 }

// Variables returns the set of variable names occurring in the rule, in
// first-occurrence order (head first, then body left to right).
func (r Rule) Variables() []string {
	seen := make(map[string]bool)
	var out []string
	add := func(a Atom) {
		for _, t := range a.Args {
			if t.Kind == Variable && !t.IsAnon() && !seen[t.Name] {
				seen[t.Name] = true
				out = append(out, t.Name)
			}
		}
	}
	add(r.Head)
	for _, b := range r.Body {
		add(b)
	}
	return out
}

// String renders the rule in source syntax.
func (r Rule) String() string {
	if len(r.Body) == 0 {
		return r.Head.String() + "."
	}
	parts := make([]string, len(r.Body))
	for i, b := range r.Body {
		parts[i] = b.String()
	}
	return r.Head.String() + " :- " + strings.Join(parts, ", ") + "."
}

// Program is an intensional database (a set of rules) together with the
// query goal. Facts are not part of the Program; they live in the engine's
// Database (the extensional database), matching the paper's convention that
// the IDB contains no facts.
type Program struct {
	Rules []Rule
	// Query is the goal atom, e.g. a@nd(X) or query(X). Constants in the
	// query act as selections on the answer.
	Query Atom
	// Derived records the predicate keys that are intensional. It is
	// initialized from the rule heads and preserved across transformations
	// so that a derived predicate whose rules have all been deleted is
	// still recognized as derived (and hence empty), not mistaken for a
	// base relation. Keys of adorned predicates are included as they are
	// introduced.
	Derived map[string]bool
}

// NewProgram builds a program from rules and a query and computes the
// initial Derived set from the rule heads.
func NewProgram(query Atom, rules ...Rule) *Program {
	p := &Program{Rules: rules, Query: query, Derived: make(map[string]bool)}
	for _, r := range rules {
		p.Derived[r.Head.Key()] = true
	}
	return p
}

// Clone returns a deep copy of the program.
func (p *Program) Clone() *Program {
	q := &Program{
		Rules:   make([]Rule, len(p.Rules)),
		Query:   p.Query.Clone(),
		Derived: make(map[string]bool, len(p.Derived)),
	}
	for i := range p.Rules {
		q.Rules[i] = p.Rules[i].Clone()
	}
	for k, v := range p.Derived {
		q.Derived[k] = v
	}
	return q
}

// IsDerived reports whether the predicate key names an intensional
// predicate of this program.
func (p *Program) IsDerived(key string) bool { return p.Derived[key] }

// HasNegation reports whether any rule body contains a negated literal.
// Several optimizations (the uniform-equivalence tests, summaries, magic
// sets) are defined for positive programs only and are skipped when this
// holds.
func (p *Program) HasNegation() bool {
	for _, r := range p.Rules {
		for _, b := range r.Body {
			if b.Negated {
				return true
			}
		}
	}
	return false
}

// RulesFor returns the indices of the rules whose head predicate key is k.
func (p *Program) RulesFor(k string) []int {
	var out []int
	for i, r := range p.Rules {
		if r.Head.Key() == k {
			out = append(out, i)
		}
	}
	return out
}

// PredicateKeys returns all predicate keys mentioned by the program
// (heads, bodies, and the query), sorted.
func (p *Program) PredicateKeys() []string {
	set := make(map[string]bool)
	set[p.Query.Key()] = true
	for _, r := range p.Rules {
		set[r.Head.Key()] = true
		for _, b := range r.Body {
			set[b.Key()] = true
		}
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// BaseKeys returns the predicate keys used in bodies that are not derived
// (i.e. the EDB schema the program expects), sorted.
func (p *Program) BaseKeys() []string {
	set := make(map[string]bool)
	for _, r := range p.Rules {
		for _, b := range r.Body {
			if !p.Derived[b.Key()] {
				set[b.Key()] = true
			}
		}
	}
	if !p.Derived[p.Query.Key()] {
		set[p.Query.Key()] = true
	}
	keys := make([]string, 0, len(set))
	for k := range set {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// String renders the program: rules in order, then the query goal as
// "?- goal.".
func (p *Program) String() string {
	var sb strings.Builder
	for _, r := range p.Rules {
		sb.WriteString(r.String())
		sb.WriteByte('\n')
	}
	if p.Query.Pred != "" {
		sb.WriteString("?- ")
		sb.WriteString(p.Query.String())
		sb.WriteString(".\n")
	}
	return sb.String()
}

// Validate checks structural well-formedness:
//   - every adornment is valid and matches its atom's arity,
//   - predicate keys are used with a consistent arity throughout,
//   - rules are range-restricted (every head variable occurs in the body),
//     except that anonymous head variables are permitted (they arise from
//     the connected-component rewrite of Section 3.1, where an existential
//     head argument loses its binding component; the engine fills them with
//     the reserved constant).
func (p *Program) Validate() error {
	arity := make(map[string]int)
	// where names rule i (the query when i < 0) in an error. It is
	// formatted on the error paths only: Validate runs on both sides of
	// every optimizer stage, and valid programs are the common case.
	where := func(i int) string {
		if i < 0 {
			return "query"
		}
		return fmt.Sprintf("rule %d (%s)", i+1, p.Rules[i])
	}
	check := func(a Atom, i int) error {
		if a.Pred == "" {
			return fmt.Errorf("%s: empty predicate name", where(i))
		}
		if !a.Adornment.Valid() {
			return fmt.Errorf("%s: invalid adornment %q on %s", where(i), a.Adornment, a.Pred)
		}
		if a.Adornment != "" && len(a.Adornment) != len(a.Args) {
			// After projection pushing the adornment is longer than the
			// argument list: length must equal the n-count instead.
			if a.Adornment.CountN() != len(a.Args) {
				return fmt.Errorf("%s: adornment %q does not fit arity %d of %s",
					where(i), a.Adornment, len(a.Args), a.Pred)
			}
		}
		key := a.Key()
		if prev, ok := arity[key]; ok && prev != len(a.Args) {
			return fmt.Errorf("%s: predicate %s used with arities %d and %d",
				where(i), key, prev, len(a.Args))
		}
		arity[key] = len(a.Args)
		return nil
	}
	bodyVars := make(map[string]bool)
	for i, r := range p.Rules {
		if err := check(r.Head, i); err != nil {
			return err
		}
		if r.Head.Negated {
			return fmt.Errorf("%s: negated head", where(i))
		}
		clear(bodyVars)
		for _, b := range r.Body {
			if err := check(b, i); err != nil {
				return err
			}
			if b.Negated {
				continue
			}
			for _, t := range b.Args {
				if t.Kind == Variable {
					bodyVars[t.Name] = true
				}
			}
		}
		// Safety: head variables and negated-literal variables must be
		// bound by positive body literals.
		for _, t := range r.Head.Args {
			if t.Kind == Variable && !t.IsAnon() && !bodyVars[t.Name] {
				return fmt.Errorf("%s: head variable %s not bound in body", where(i), t.Name)
			}
		}
		for _, b := range r.Body {
			if !b.Negated {
				continue
			}
			for _, t := range b.Args {
				if t.Kind == Variable && !t.IsAnon() && !bodyVars[t.Name] {
					return fmt.Errorf("%s: variable %s of negated literal %s not bound by a positive literal",
						where(i), t.Name, b)
				}
			}
		}
	}
	if p.Query.Pred != "" {
		if err := check(p.Query, -1); err != nil {
			return err
		}
	}
	return nil
}
