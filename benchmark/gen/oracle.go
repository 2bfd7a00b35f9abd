package gen

import (
	"sort"
	"strings"
)

// The oracle is a deliberately plain bottom-up evaluator over sets of
// string tuples. It shares nothing with the program under test: no
// optimizer, no adornment, no symbol table, no engine import. It derives
// the whole fixpoint of the program as written and then selects, which
// is the definition the optimizer has to preserve.

// Rel is a set of string tuples with a lazily built per-column hash
// lookup, so that a 400-node closure does not take minutes.
type Rel struct {
	Rows  [][]string
	seen  map[string]struct{}
	index map[int]map[string][]int
}

// DB maps a predicate name to its tuples.
type DB map[string]*Rel

func newRel() *Rel { return &Rel{seen: make(map[string]struct{})} }

func tupleKey(row []string) string { return strings.Join(row, "\x00") }

func (r *Rel) add(row []string) bool {
	k := tupleKey(row)
	if _, dup := r.seen[k]; dup {
		return false
	}
	r.seen[k] = struct{}{}
	for col, byVal := range r.index {
		byVal[row[col]] = append(byVal[row[col]], len(r.Rows))
	}
	r.Rows = append(r.Rows, row)
	return true
}

// Has reports whether the tuple is in the relation.
func (r *Rel) Has(row []string) bool {
	_, ok := r.seen[tupleKey(row)]
	return ok
}

func (r *Rel) lookup(col int, val string) []int {
	byVal, ok := r.index[col]
	if !ok {
		byVal = make(map[string][]int)
		for i, row := range r.Rows {
			byVal[row[col]] = append(byVal[row[col]], i)
		}
		if r.index == nil {
			r.index = make(map[int]map[string][]int)
		}
		r.index[col] = byVal
	}
	return byVal[val]
}

func (db DB) rel(pred string) *Rel {
	r, ok := db[pred]
	if !ok {
		r = newRel()
		db[pred] = r
	}
	return r
}

// Evaluate returns the least fixpoint of the program's rules over its
// facts: one naive round, then rounds that require at least one body
// atom to match a tuple that was new in the round before.
func Evaluate(p *Program) DB {
	db := DB{}
	for _, f := range p.Facts {
		db.rel(f.Pred).add(f.Args)
	}
	derived := map[string]bool{}
	for _, r := range p.Rules {
		derived[r.Head.Pred] = true
	}
	delta := DB{}
	emit := func(into DB) func(Atom, map[string]string) {
		return func(head Atom, env map[string]string) {
			row := make([]string, len(head.Args))
			for i, t := range head.Args {
				if IsVar(t) {
					row[i] = env[t]
				} else {
					row[i] = t
				}
			}
			if !db.rel(head.Pred).Has(row) {
				into.rel(head.Pred).add(row)
			}
		}
	}
	for _, r := range p.Rules {
		joinBody(r, db, nil, -1, emit(delta))
	}
	for len(delta) > 0 {
		for pred, d := range delta {
			for _, row := range d.Rows {
				db.rel(pred).add(row)
			}
		}
		next := DB{}
		for _, r := range p.Rules {
			for i, b := range r.Body {
				if derived[b.Pred] && delta[b.Pred] != nil {
					joinBody(r, db, delta[b.Pred], i, emit(next))
				}
			}
		}
		delta = next
	}
	return db
}

// joinBody enumerates every binding of the rule's body. When deltaAt is
// not negative, body atom deltaAt ranges over delta instead of the full
// relation and is joined first.
func joinBody(r Rule, db DB, delta *Rel, deltaAt int, emit func(Atom, map[string]string)) {
	order := make([]int, 0, len(r.Body))
	if deltaAt >= 0 {
		order = append(order, deltaAt)
	}
	for i := range r.Body {
		if i != deltaAt {
			order = append(order, i)
		}
	}
	env := map[string]string{}
	var step func(k int)
	step = func(k int) {
		if k == len(order) {
			emit(r.Head, env)
			return
		}
		at := order[k]
		atom := r.Body[at]
		rel := db[atom.Pred]
		if at == deltaAt {
			rel = delta
		}
		if rel == nil {
			return
		}
		// Narrow by the first argument whose value is already known.
		cand := -1
		var candVal string
		for i, t := range atom.Args {
			if !IsVar(t) {
				cand, candVal = i, t
				break
			}
			if v, bound := env[t]; bound && t != "_" {
				cand, candVal = i, v
				break
			}
		}
		try := func(row []string) {
			var bound []string
			ok := true
			for i, t := range atom.Args {
				switch {
				case t == "_":
				case !IsVar(t):
					ok = row[i] == t
				default:
					if v, has := env[t]; has {
						ok = v == row[i]
					} else {
						env[t] = row[i]
						bound = append(bound, t)
					}
				}
				if !ok {
					break
				}
			}
			if ok {
				step(k + 1)
			}
			for _, t := range bound {
				delete(env, t)
			}
		}
		if cand >= 0 {
			for _, i := range rel.lookup(cand, candVal) {
				try(rel.Rows[i])
			}
			return
		}
		for i := 0; i < len(rel.Rows); i++ {
			try(rel.Rows[i])
		}
	}
	step(0)
}

// Answers selects the goal's tuples from a fixpoint: constants select,
// a repeated variable demands equal values, and anonymous positions are
// existential — they are dropped and the remaining tuples deduplicated,
// which is the arity the server answers with once it has pushed the
// projection. Rows come back sorted.
func Answers(db DB, goal Atom) [][]string {
	rel := db[goal.Pred]
	if rel == nil {
		return nil
	}
	out := newRel()
	for _, row := range rel.Rows {
		if len(row) != len(goal.Args) {
			continue
		}
		first := map[string]string{}
		var keep []string
		ok := true
		for i, t := range goal.Args {
			switch {
			case t == "_":
				continue
			case !IsVar(t):
				ok = row[i] == t
			default:
				if v, seen := first[t]; seen {
					ok = v == row[i]
				} else {
					first[t] = row[i]
				}
			}
			if !ok {
				break
			}
			keep = append(keep, row[i])
		}
		if ok {
			out.add(keep)
		}
	}
	SortRows(out.Rows)
	return out.Rows
}

// SortRows orders tuples lexicographically, in place.
func SortRows(rows [][]string) {
	sort.Slice(rows, func(i, j int) bool {
		a, b := rows[i], rows[j]
		for k := 0; k < len(a) && k < len(b); k++ {
			if a[k] != b[k] {
				return a[k] < b[k]
			}
		}
		return len(a) < len(b)
	})
}

// SameRows reports whether two answer sets hold the same tuples,
// whatever their order.
func SameRows(got, want [][]string) bool {
	if len(got) != len(want) {
		return false
	}
	set := make(map[string]int, len(want))
	for _, r := range want {
		set[tupleKey(r)]++
	}
	for _, r := range got {
		k := tupleKey(r)
		if set[k] == 0 {
			return false
		}
		set[k]--
	}
	return true
}
