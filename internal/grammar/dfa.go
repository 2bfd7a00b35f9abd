package grammar

import (
	"existdlog/internal/ast"

	"fmt"
	"sort"
	"strings"
)

// DFA is a deterministic finite automaton over terminal symbols. A missing
// transition goes to an implicit dead state.
type DFA struct {
	Start    int
	Accept   []bool
	Trans    []map[string]int
	Alphabet []string
}

// Determinize performs the subset construction over the given alphabet.
func Determinize(n *NFA, alphabet []string) *DFA {
	key := func(set []int) string {
		parts := make([]string, len(set))
		for i, s := range set {
			parts[i] = fmt.Sprint(s)
		}
		return strings.Join(parts, ",")
	}
	norm := func(set map[int]bool) []int {
		out := make([]int, 0, len(set))
		for s := range set {
			out = append(out, s)
		}
		sort.Ints(out)
		return out
	}
	d := &DFA{Alphabet: append([]string(nil), alphabet...)}
	sort.Strings(d.Alphabet)
	idOf := map[string]int{}
	var sets [][]int
	newState := func(set []int) int {
		k := key(set)
		if id, ok := idOf[k]; ok {
			return id
		}
		id := len(sets)
		idOf[k] = id
		sets = append(sets, set)
		d.Trans = append(d.Trans, map[string]int{})
		acc := false
		for _, s := range set {
			if n.Accept[s] {
				acc = true
			}
		}
		d.Accept = append(d.Accept, acc)
		return id
	}
	d.Start = newState([]int{n.Start})
	for i := 0; i < len(sets); i++ {
		for _, sym := range d.Alphabet {
			next := map[int]bool{}
			for _, s := range sets[i] {
				for _, t := range n.Trans[s][sym] {
					next[t] = true
				}
			}
			if len(next) == 0 {
				continue // dead
			}
			d.Trans[i][sym] = newState(norm(next))
		}
	}
	return d
}

// Minimize returns the Moore-minimized DFA (dead states merged into the
// implicit dead state, unreachable states dropped).
func Minimize(d *DFA) *DFA {
	n := len(d.Accept)
	// Completion: treat the implicit dead state as state n.
	trans := func(s int, sym string) int {
		if s == n {
			return n
		}
		if t, ok := d.Trans[s][sym]; ok {
			return t
		}
		return n
	}
	accept := func(s int) bool { return s != n && d.Accept[s] }

	// Initial partition by acceptance.
	class := make([]int, n+1)
	for s := 0; s <= n; s++ {
		if accept(s) {
			class[s] = 1
		}
	}
	for {
		sig := make([]string, n+1)
		for s := 0; s <= n; s++ {
			var sb strings.Builder
			fmt.Fprintf(&sb, "%d", class[s])
			for _, sym := range d.Alphabet {
				fmt.Fprintf(&sb, "|%d", class[trans(s, sym)])
			}
			sig[s] = sb.String()
		}
		remap := map[string]int{}
		next := make([]int, n+1)
		for s := 0; s <= n; s++ {
			id, ok := remap[sig[s]]
			if !ok {
				id = len(remap)
				remap[sig[s]] = id
			}
			next[s] = id
		}
		same := true
		for s := 0; s <= n; s++ {
			if next[s] != class[s] {
				same = false
			}
		}
		class = next
		if same {
			break
		}
	}
	// Build the quotient, keeping only states reachable from the start and
	// not equivalent to the dead state.
	dead := class[n]
	out := &DFA{Alphabet: d.Alphabet, Start: -1}
	idOf := map[int]int{}
	var order []int
	var visit func(c int)
	visit = func(c int) {
		if c == dead {
			return
		}
		if _, ok := idOf[c]; ok {
			return
		}
		idOf[c] = len(order)
		order = append(order, c)
		// Find a representative of class c.
		rep := -1
		for s := 0; s <= n; s++ {
			if class[s] == c {
				rep = s
				break
			}
		}
		for _, sym := range d.Alphabet {
			visit(class[trans(rep, sym)])
		}
	}
	startClass := class[d.Start]
	visit(startClass)
	out.Accept = make([]bool, len(order))
	out.Trans = make([]map[string]int, len(order))
	for i, c := range order {
		rep := -1
		for s := 0; s <= n; s++ {
			if class[s] == c {
				rep = s
				break
			}
		}
		out.Accept[i] = accept(rep)
		out.Trans[i] = map[string]int{}
		for _, sym := range d.Alphabet {
			tc := class[trans(rep, sym)]
			if tc == dead {
				continue
			}
			out.Trans[i][sym] = idOf[tc]
		}
	}
	if startClass == dead {
		// Empty language: single non-accepting start with no transitions.
		return &DFA{Alphabet: d.Alphabet, Start: 0,
			Accept: []bool{false}, Trans: []map[string]int{{}}}
	}
	out.Start = idOf[startClass]
	return out
}

// nfa views d as an NFA with one successor per transition, for the
// constructions written over NFAs.
func (d *DFA) nfa() *NFA {
	n := &NFA{Start: d.Start, Accept: map[int]bool{}, NumStates: len(d.Trans)}
	for s, tr := range d.Trans {
		n.Trans = append(n.Trans, make(map[string][]int, len(tr)))
		for sym, t := range tr {
			n.Trans[s][sym] = []int{t}
		}
		if d.Accept[s] {
			n.Accept[s] = true
		}
	}
	return n
}

// Accepts reports whether the DFA accepts the string.
func (d *DFA) Accepts(s []string) bool {
	cur := d.Start
	for _, sym := range s {
		t, ok := d.Trans[cur][sym]
		if !ok {
			return false
		}
		cur = t
	}
	return d.Accept[cur]
}

// EqualDFA decides language equality of two DFAs by a product search:
// every reachable state pair must agree on acceptance (missing transitions
// are the dead state).
func EqualDFA(d1, d2 *DFA) bool {
	alpha := map[string]bool{}
	for _, s := range d1.Alphabet {
		alpha[s] = true
	}
	for _, s := range d2.Alphabet {
		alpha[s] = true
	}
	type pair struct{ a, b int } // -1 = dead
	seen := map[pair]bool{}
	queue := []pair{{d1.Start, d2.Start}}
	seen[queue[0]] = true
	acc := func(d *DFA, s int) bool { return s >= 0 && d.Accept[s] }
	step := func(d *DFA, s int, sym string) int {
		if s < 0 {
			return -1
		}
		if t, ok := d.Trans[s][sym]; ok {
			return t
		}
		return -1
	}
	for len(queue) > 0 {
		p := queue[0]
		queue = queue[1:]
		if acc(d1, p.a) != acc(d2, p.b) {
			return false
		}
		for sym := range alpha {
			np := pair{step(d1, p.a, sym), step(d2, p.b, sym)}
			if np.a == -1 && np.b == -1 {
				continue
			}
			if !seen[np] {
				seen[np] = true
				queue = append(queue, np)
			}
		}
	}
	return true
}

// EquivalentRegular decides L(g1) = L(g2) exactly for linear chain
// grammars — the decidable fragment of Lemma 4.1's query-equivalence
// criterion (general CFG equality is undecidable, Lemma 4.2). Both
// grammars must lean the same way: two right-linear (or acyclic) grammars
// compare directly; two left-linear grammars compare via their reversals;
// mixed linearity is rejected.
func EquivalentRegular(g1, g2 *Grammar) (bool, error) {
	c1, c2 := Classify(g1), Classify(g2)
	rightish := func(c Linearity) bool { return c == RightLinear || c == Acyclic }
	leftish := func(c Linearity) bool { return c == LeftLinear || c == Acyclic }
	switch {
	case rightish(c1) && rightish(c2):
	case leftish(c1) && leftish(c2):
		g1, g2 = Reverse(g1), Reverse(g2)
	default:
		return false, fmt.Errorf("grammar: cannot compare linearity %v with %v exactly", c1, c2)
	}
	n1, err := NFAFromRightLinear(g1)
	if err != nil {
		return false, err
	}
	n2, err := NFAFromRightLinear(g2)
	if err != nil {
		return false, err
	}
	alpha := map[string]bool{}
	for t := range g1.Terminals {
		alpha[t] = true
	}
	for t := range g2.Terminals {
		alpha[t] = true
	}
	syms := make([]string, 0, len(alpha))
	for t := range alpha {
		syms = append(syms, t)
	}
	sort.Strings(syms)
	d1 := Minimize(Determinize(n1, syms))
	d2 := Minimize(Determinize(n2, syms))
	return EqualDFA(d1, d2), nil
}

// ChainQueryEquivalent decides query equivalence of two binary chain
// programs with linear grammars, per Lemma 4.1(2): the programs compute
// the same answers on every database iff their languages coincide.
func ChainQueryEquivalent(p1, p2 *ast.Program) (bool, error) {
	g1, err := FromChainProgram(p1)
	if err != nil {
		return false, err
	}
	g2, err := FromChainProgram(p2)
	if err != nil {
		return false, err
	}
	return EquivalentRegular(g1, g2)
}
