package engine

import (
	"slices"
	"sort"

	"existdlog/internal/ast"
)

// Answers returns the rows of the query predicate that match the goal atom
// q: constants in q act as selections, repeated variables as equality
// constraints. Rows are decoded to constant names and sorted. Positions
// holding anonymous variables are retained (callers drop them if desired);
// the engine computes whole tuples of the (already projected) query
// predicate.
func (res *Result) Answers(q ast.Atom) [][]string {
	t := res.AnswerRows(q)
	if t.Len() == 0 {
		return nil
	}
	out := make([][]string, t.Len())
	for i := range out {
		out[i] = t.Strings(i)
	}
	return out
}

// AnswerCount returns the number of rows matching the goal atom, without
// decoding or sorting them.
func (res *Result) AnswerCount(q ast.Atom) int {
	rel, m, ok := res.goalMatcher(q)
	if !ok {
		return 0
	}
	return m.count(rel)
}

// AnswerTable is a goal's answers without ids: Dict holds the distinct
// constants of the matching rows in string order, and each answer is a
// row of ranks into Dict. Row i of the table is the i-th row Answers
// returns: Dict[Row(i)[k]] is its k-th constant.
type AnswerTable struct {
	Dict  []string
	arity int
	ranks []int32 // arity-strided rank rows, in the relation's order
	order []int32 // answer order: answer i is rank row order[i]
}

// Len returns the number of answers.
func (t AnswerTable) Len() int { return len(t.order) }

// Row returns answer i as ranks into Dict. The caller must not mutate it.
func (t AnswerTable) Row(i int) []int32 {
	off := int(t.order[i]) * t.arity
	return t.ranks[off : off+t.arity : off+t.arity]
}

// Strings decodes answer i to its constants.
func (t AnswerTable) Strings(i int) []string {
	row := make([]string, t.arity)
	for k, r := range t.Row(i) {
		row[k] = t.Dict[r]
	}
	return row
}

// Widen returns t with a column inserted before column col that holds the
// constant c in every row: the answers of a goal whose constant the
// evaluation never derived, such as a chain goal served from its
// automaton's answer state. c takes its place in Dict by string order,
// shifting the ranks after it, or keeps its rank if a row already holds
// it. The order of the answers is t's: every row holds the same value in
// the new column, so their lexicographic order does not change. t itself
// is left as it was; the result shares its order. A table with no
// answers stays empty: its Dict holds only constants of answers.
func (t AnswerTable) Widen(col int, c string) AnswerTable {
	if t.Len() == 0 {
		return AnswerTable{Dict: t.Dict, arity: t.arity + 1}
	}
	r, found := slices.BinarySearch(t.Dict, c)
	out := AnswerTable{Dict: t.Dict, arity: t.arity + 1, order: t.order}
	if !found {
		out.Dict = make([]string, 0, len(t.Dict)+1)
		out.Dict = append(append(append(out.Dict, t.Dict[:r]...), c), t.Dict[r:]...)
	}
	out.ranks = make([]int32, 0, t.Len()*out.arity)
	for i := 0; i < t.Len(); i++ {
		for k, d := range t.ranks[i*t.arity : (i+1)*t.arity] {
			if k == col {
				out.ranks = append(out.ranks, int32(r))
			}
			if !found && d >= int32(r) {
				d++
			}
			out.ranks = append(out.ranks, d)
		}
		if col == t.arity {
			out.ranks = append(out.ranks, int32(r))
		}
	}
	return out
}

// AnswerRows returns the rows Answers returns, in the same order, without
// decoding them. Names are compared once per distinct constant, never per
// row: ranking the distinct constants by name turns the string order of
// rows into the lexicographic order of their rank rows, which an LSD radix
// sort (one stable counting sort per column, last column first) computes
// in O(rows × arity + distinct constants). Rows of a relation are
// distinct, so no two answers tie.
func (res *Result) AnswerRows(q ast.Atom) AnswerTable {
	rel, m, ok := res.goalMatcher(q)
	if !ok {
		return AnswerTable{}
	}
	a := rel.Arity()
	n := m.count(rel)
	t := AnswerTable{arity: a, ranks: make([]int32, 0, n*a), order: make([]int32, n)}
	// Number the distinct ids by first appearance, then renumber them by
	// name. Ids are dense, so the numbering is a slice indexed by id,
	// holding number+1 (0: not seen yet).
	names := res.DB.Syms.Names()
	slot := make([]int32, len(names))
	var ids []int32
	for ti := 0; ti < rel.Len(); ti++ {
		row := rel.Tuple(ti)
		if !m.match(row) {
			continue
		}
		for _, id := range row {
			d := slot[id] - 1
			if d < 0 {
				d = int32(len(ids))
				slot[id] = d + 1
				ids = append(ids, id)
			}
			t.ranks = append(t.ranks, d)
		}
	}
	byName := make([]int32, len(ids))
	for d := range byName {
		byName[d] = int32(d)
	}
	sort.Slice(byName, func(i, j int) bool { return names[ids[byName[i]]] < names[ids[byName[j]]] })
	rank := make([]int32, len(ids))
	t.Dict = make([]string, len(ids))
	for r, d := range byName {
		rank[d] = int32(r)
		t.Dict[r] = names[ids[d]]
	}
	for c, d := range t.ranks {
		t.ranks[c] = rank[d]
	}
	for i := range t.order {
		t.order[i] = int32(i)
	}
	count := make([]int32, len(t.Dict)+1)
	tmp := make([]int32, n)
	for k := a - 1; k >= 0; k-- {
		clear(count)
		for _, o := range t.order {
			count[t.ranks[int(o)*a+k]+1]++
		}
		for r := 1; r < len(count); r++ {
			count[r] += count[r-1]
		}
		for _, o := range t.order {
			c := &count[t.ranks[int(o)*a+k]]
			tmp[*c] = o
			*c++
		}
		t.order, tmp = tmp, t.order
	}
	return t
}

// goalMatcher compiles the goal atom q against its relation: the goal's
// constants become ids to compare and its repeated variables column pairs
// to compare, once, instead of per row. ok is false when no row can match
// (no relation, another arity, or a constant that was never interned).
func (res *Result) goalMatcher(q ast.Atom) (rel *Relation, m rowMatcher, ok bool) {
	rel, ok = res.DB.Lookup(q.Key())
	if !ok || rel.Arity() != len(q.Args) {
		return nil, m, false
	}
	first := make(map[string]int)
	for i, a := range q.Args {
		switch a.Kind {
		case ast.Constant:
			id, found := res.DB.Syms.Lookup(a.Name)
			if !found {
				return nil, m, false
			}
			m.consts = append(m.consts, colValue{i, id})
		case ast.Variable:
			if a.IsAnon() {
				continue
			}
			if j, seen := first[a.Name]; seen {
				m.equal = append(m.equal, [2]int{j, i})
			} else {
				first[a.Name] = i
			}
		}
	}
	return rel, m, true
}

// rowMatcher selects the rows of one relation that match a goal atom.
type rowMatcher struct {
	consts []colValue // column col must hold id
	equal  [][2]int   // the two columns must hold the same id
}

type colValue struct {
	col int
	id  int32
}

func (m rowMatcher) match(row Tuple) bool {
	for _, c := range m.consts {
		if row[c.col] != c.id {
			return false
		}
	}
	for _, e := range m.equal {
		if row[e[0]] != row[e[1]] {
			return false
		}
	}
	return true
}

func (m rowMatcher) count(rel *Relation) int {
	n := 0
	for ti := 0; ti < rel.Len(); ti++ {
		if m.match(rel.Tuple(ti)) {
			n++
		}
	}
	return n
}

// Tree is a derivation tree (Section 1.1 of the paper): the root fact, the
// rule that produced it (-1 for base facts), and the subtrees for the body
// facts of that rule application.
type Tree struct {
	Fact     FactRef
	Rule     int
	Children []*Tree
}

// Size returns the number of nodes in the tree.
func (t *Tree) Size() int {
	n := 1
	for _, c := range t.Children {
		n += c.Size()
	}
	return n
}

// Height returns the height of the tree (a base fact has height 1).
func (t *Tree) Height() int {
	h := 0
	for _, c := range t.Children {
		if ch := c.Height(); ch > h {
			h = ch
		}
	}
	return h + 1
}

// Derivation reconstructs the derivation tree of a derived fact recorded
// during an evaluation run with TrackProvenance. It returns false if the
// fact is unknown. Base facts yield single-node trees with Rule = -1.
// The justification recorded for each fact is its first derivation, whose
// body facts necessarily existed earlier, so the reconstruction always
// terminates.
func (res *Result) Derivation(key string, row []string) (*Tree, bool) {
	t := make(Tuple, len(row))
	for i, name := range row {
		id, ok := res.DB.Syms.Lookup(name)
		if !ok {
			return nil, false
		}
		t[i] = id
	}
	rel, ok := res.DB.Lookup(key)
	if !ok || !rel.Contains(t) {
		return nil, false
	}
	return res.buildTree(FactRef{Key: key, Row: t}), true
}

// RowStrings decodes a tuple of interned ids to constant names using the
// result's interner (for rendering derivation trees).
func (res *Result) RowStrings(row Tuple) []string {
	out := make([]string, len(row))
	for i, id := range row {
		out[i] = res.DB.Syms.Name(id)
	}
	return out
}

func (res *Result) buildTree(f FactRef) *Tree {
	if res.prov != nil {
		if m, ok := res.prov[f.Key]; ok {
			if j, ok := m.get(f.Row); ok {
				node := &Tree{Fact: f, Rule: j.Rule}
				for _, b := range j.Body {
					node.Children = append(node.Children, res.buildTree(b))
				}
				return node
			}
		}
	}
	return &Tree{Fact: f, Rule: -1}
}
