// Package xform implements the rule rewritings of the paper:
//
//   - SplitComponents (Section 3.1): connected components of a rule body
//     that are not connected to the head become boolean subquery rules,
//     enabling the runtime boolean cut.
//   - PushProjections (Section 3.2, Lemma 3.2): existential ('d') argument
//     positions of adorned derived predicates are deleted consistently.
//   - AddCoveringUnitRules (Section 5): unit rules q^a :- q^a1 for covering
//     adornments, the raw material of the summary-based deletion tests.
//   - ReduceInvariantArgument (Section 6, Example 12): an argument carried
//     unchanged through recursion and consumed only by invariant check
//     literals is projected out, with the checks pushed into the exit
//     rules.
package xform

import (
	"fmt"
	"strconv"

	"existdlog/internal/ast"
)

// SplitComponents applies the Phase-1 rewrite of Section 3.1 to an adorned
// program: in every rule body, the connected components (variables are
// connected when they co-occur in a literal, transitively; head variables
// in existential positions do not anchor the head) that do not contain the
// head are replaced by fresh boolean predicates with their own defining
// rules. Existential head variables whose binding component was severed
// become anonymous (the paper's "p@nd(X,_)"), per Example 2.
//
// Lemma 3.1: the rewrite preserves query equivalence and leaves every rule
// with a single connected component.
func SplitComponents(p *ast.Program) (*ast.Program, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	out := &ast.Program{Query: p.Query.Clone(), Derived: make(map[string]bool)}
	for k := range p.Derived {
		out.Derived[k] = true
	}
	used := make(map[string]bool)
	for _, k := range p.PredicateKeys() {
		used[k] = true
	}
	boolN := 0
	freshBool := func() string {
		for {
			boolN++
			name := "b" + strconv.Itoa(boolN)
			if !used[name] {
				used[name] = true
				return name
			}
		}
	}

	for _, r := range p.Rules {
		groups, headed := componentGroups(r)
		severable := 0
		for gi := range groups {
			if !headed[gi] {
				severable++
			}
		}
		if severable == 0 || (severable == len(groups) && severable <= 1) {
			// Fully connected, or a headless rule that is itself a single
			// subquery: nothing to split.
			out.Rules = append(out.Rules, r.Clone())
			continue
		}
		// Rebuild the rule in original literal order: boolean literals and
		// the head groups' literals stay; each other group is replaced (at
		// its first literal's position) by a fresh boolean literal with a
		// defining rule.
		newRule := ast.Rule{Head: r.Head.Clone()}
		var boolRules []ast.Rule
		severedVars := make(map[string]bool)
		groupName := make(map[int]string)
		groupAt := make(map[int]int) // literal index -> group
		for gi, g := range groups {
			for _, li := range g {
				groupAt[li] = gi
			}
			if headed[gi] {
				continue
			}
			for _, li := range g {
				for _, t := range r.Body[li].Args {
					if t.Kind == ast.Variable {
						severedVars[t.Name] = true
					}
				}
			}
		}
		for li, b := range r.Body {
			gi, grouped := groupAt[li]
			if !grouped || headed[gi] {
				newRule.Body = append(newRule.Body, b.Clone())
				continue
			}
			name, named := groupName[gi]
			if !named {
				name = freshBool()
				groupName[gi] = name
				newRule.Body = append(newRule.Body, ast.NewAtom(name))
				br := ast.Rule{Head: ast.NewAtom(name)}
				for _, gli := range groups[gi] {
					br.Body = append(br.Body, r.Body[gli].Clone())
				}
				boolRules = append(boolRules, br)
				out.Derived[name] = true
			}
		}
		// Anonymize existential head variables bound only in severed
		// components.
		for i, t := range newRule.Head.Args {
			if t.Kind == ast.Variable && severedVars[t.Name] &&
				headExistential(r.Head, i) {
				newRule.Head.Args[i] = ast.V("_")
			}
		}
		out.Rules = append(out.Rules, newRule)
		out.Rules = append(out.Rules, boolRules...)
	}
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("xform: component split produced invalid program: %w", err)
	}
	return out, nil
}

func headExistential(head ast.Atom, i int) bool {
	return i < len(head.Adornment) && head.Adornment[i] == 'd'
}

// componentGroups partitions the body literal indices of r into
// connectivity groups and marks, in headed, every group that shares a
// variable with a non-existential head position. A head whose needed
// variables lie in two components (p(X,U) :- q(X), r(U).) anchors both:
// their join is a cross product, not a boolean test. Arity-0 (boolean) literals carry no variables and belong to
// no group: they are already propositional subqueries and are never
// re-severed.
func componentGroups(r ast.Rule) (groups [][]int, headed []bool) {
	// Union-find over variable names; each literal links its variables.
	parent := make(map[string]string)
	var find func(x string) string
	find = func(x string) string {
		if parent[x] == "" {
			parent[x] = x
		}
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	union := func(a, b string) {
		ra, rb := find(a), find(b)
		if ra != rb {
			parent[ra] = rb
		}
	}
	for _, b := range r.Body {
		var first string
		for _, t := range b.Args {
			if t.Kind != ast.Variable {
				continue
			}
			if first == "" {
				first = t.Name
			} else {
				union(first, t.Name)
			}
		}
	}
	// Head anchor roots: variables in non-existential head positions.
	anchor := make(map[string]bool)
	for i, t := range r.Head.Args {
		if t.Kind == ast.Variable && !t.IsAnon() && !headExistential(r.Head, i) {
			anchor[find(t.Name)] = true
		}
	}
	// Group literals by component root; variable-free literals are their
	// own singleton groups.
	rootGroup := make(map[string]int)
	for li, b := range r.Body {
		if b.Arity() == 0 {
			continue // propositional: no component
		}
		var root string
		for _, t := range b.Args {
			if t.Kind == ast.Variable {
				root = find(t.Name)
				break
			}
		}
		if root == "" {
			groups = append(groups, []int{li}) // ground literal: own group
			headed = append(headed, false)
			continue
		}
		gi, ok := rootGroup[root]
		if !ok {
			gi = len(groups)
			rootGroup[root] = gi
			groups = append(groups, nil)
			headed = append(headed, anchor[root])
		}
		groups[gi] = append(groups[gi], li)
	}
	return groups, headed
}

// ComponentReport describes the outcome of SplitComponents for one rule,
// used by the CLI and tests.
type ComponentReport struct {
	Rule       string
	Components int
}

// CountComponents reports, for each rule, how many connectivity components
// its body has (including the head's).
func CountComponents(p *ast.Program) []ComponentReport {
	out := make([]ComponentReport, 0, len(p.Rules))
	for _, r := range p.Rules {
		groups, _ := componentGroups(r)
		n := len(groups)
		if n == 0 {
			n = 1
		}
		out = append(out, ComponentReport{Rule: r.String(), Components: n})
	}
	return out
}
