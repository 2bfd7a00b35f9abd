package engine

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestRelationInsertDedup(t *testing.T) {
	r := NewRelation(2)
	if !r.Insert(Tuple{1, 2}) {
		t.Error("first insert should be new")
	}
	if r.Insert(Tuple{1, 2}) {
		t.Error("duplicate insert should report false")
	}
	if r.Len() != 1 {
		t.Errorf("len = %d", r.Len())
	}
	if !r.Contains(Tuple{1, 2}) || r.Contains(Tuple{2, 1}) {
		t.Error("membership broken")
	}
}

func TestRelationInsertCopies(t *testing.T) {
	r := NewRelation(2)
	row := Tuple{1, 2}
	r.Insert(row)
	row[0] = 99
	if !r.Contains(Tuple{1, 2}) {
		t.Error("Insert must copy the tuple")
	}
}

// matchIDs collects the row ids Match yields, in cursor order.
func matchIDs(r *Relation, cols []int, vals []int32) []int32 {
	var ids []int32
	rows := r.Match(cols, vals)
	for row, ok := rows.Next(); ok; row, ok = rows.Next() {
		ids = append(ids, row)
	}
	return ids
}

func TestRelationMatchUnbound(t *testing.T) {
	r := NewRelation(1)
	r.Insert(Tuple{1})
	r.Insert(Tuple{2})
	if got := matchIDs(r, nil, nil); len(got) != 2 {
		t.Errorf("unbound match = %v", got)
	}
}

func TestRelationZeroArity(t *testing.T) {
	r := NewRelation(0)
	if !r.Insert(Tuple{}) {
		t.Error("empty tuple insert")
	}
	if r.Insert(Tuple{}) {
		t.Error("empty tuple is unique")
	}
	if len(matchIDs(r, nil, nil)) != 1 {
		t.Error("zero-arity match")
	}
}

func TestRelationIndexMaintainedAcrossInserts(t *testing.T) {
	r := NewRelation(2)
	r.Insert(Tuple{1, 10})
	// Build the index on column 0.
	if got := matchIDs(r, []int{0}, []int32{1}); len(got) != 1 {
		t.Fatalf("match = %v", got)
	}
	// Insert after the index exists: it must be maintained.
	r.Insert(Tuple{1, 20})
	if got := matchIDs(r, []int{0}, []int32{1}); len(got) != 2 {
		t.Errorf("stale index: %v", got)
	}
}

func TestRelationMatchColumnOrderIrrelevant(t *testing.T) {
	r := NewRelation(3)
	r.Insert(Tuple{1, 2, 3})
	r.Insert(Tuple{1, 5, 3})
	a := matchIDs(r, []int{0, 2}, []int32{1, 3})
	b := matchIDs(r, []int{2, 0}, []int32{3, 1})
	if len(a) != 2 || len(b) != 2 {
		t.Errorf("matches: %v vs %v", a, b)
	}
}

// Property: Match(cols, vals) returns exactly the indices of tuples whose
// projection matches — checked against a brute-force scan over random
// relations and probes.
func TestRelationMatchProperty(t *testing.T) {
	type probe struct {
		Rows [][3]uint8
		Cols [2]uint8
		Vals [2]uint8
	}
	f := func(p probe) bool {
		r := NewRelation(3)
		for _, row := range p.Rows {
			r.Insert(Tuple{int32(row[0] % 5), int32(row[1] % 5), int32(row[2] % 5)})
		}
		cols := []int{int(p.Cols[0] % 3), int(p.Cols[1] % 3)}
		vals := []int32{int32(p.Vals[0] % 5), int32(p.Vals[1] % 5)}
		if cols[0] == cols[1] {
			cols = cols[:1]
			vals = vals[:1]
		}
		var got []int
		for _, ti := range matchIDs(r, cols, vals) {
			got = append(got, int(ti))
		}
		sort.Ints(got)
		var want []int
		for i, tpl := range r.Tuples() {
			ok := true
			for j, c := range cols {
				if tpl[c] != vals[j] {
					ok = false
				}
			}
			if ok {
				want = append(want, i)
			}
		}
		return reflect.DeepEqual(got, want) || (len(got) == 0 && len(want) == 0)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// Property: insertion order is preserved and dedup never loses a distinct
// tuple.
func TestRelationSetSemanticsProperty(t *testing.T) {
	f := func(rows [][2]uint8) bool {
		r := NewRelation(2)
		seen := map[[2]uint8]bool{}
		var order [][2]uint8
		for _, row := range rows {
			isNew := r.Insert(Tuple{int32(row[0]), int32(row[1])})
			if isNew != !seen[row] {
				return false
			}
			if !seen[row] {
				seen[row] = true
				order = append(order, row)
			}
		}
		if r.Len() != len(order) {
			return false
		}
		for i, tpl := range r.Tuples() {
			if tpl[0] != int32(order[i][0]) || tpl[1] != int32(order[i][1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestSymbolsInternStable(t *testing.T) {
	s := NewSymbols()
	if s.Intern("_") != AnonID {
		t.Error("anon must be id 0")
	}
	a := s.Intern("alice")
	if s.Intern("alice") != a {
		t.Error("intern must be stable")
	}
	if s.Name(a) != "alice" {
		t.Errorf("Name = %q", s.Name(a))
	}
	if _, ok := s.Lookup("bob"); ok {
		t.Error("bob not interned yet")
	}
	c := s.Clone()
	c.Intern("bob")
	if _, ok := s.Lookup("bob"); ok {
		t.Error("clone must not share state")
	}
}

func TestDatabaseCloneIndependence(t *testing.T) {
	db := NewDatabase()
	db.Add("e", "1", "2")
	c := db.Clone()
	c.Add("e", "3", "4")
	c.Add("f", "x")
	if db.Count("e") != 1 || db.Has("f") {
		t.Error("clone mutated the original")
	}
}

func TestDatabaseArityPanic(t *testing.T) {
	db := NewDatabase()
	db.Add("e", "1", "2")
	defer func() {
		if recover() == nil {
			t.Error("arity mismatch should panic")
		}
	}()
	db.Relation("e", 3)
}

func TestDatabaseFactsSorted(t *testing.T) {
	db := NewDatabase()
	db.Add("e", "b", "1")
	db.Add("e", "a", "2")
	db.Add("e", "a", "1")
	facts := db.Facts("e")
	for i := 1; i < len(facts); i++ {
		if facts[i-1][0] > facts[i][0] ||
			(facts[i-1][0] == facts[i][0] && facts[i-1][1] > facts[i][1]) {
			t.Errorf("facts not sorted: %v", facts)
		}
	}
}

func TestActiveDomain(t *testing.T) {
	db := NewDatabase()
	db.Add("e", "1", "2")
	db.Add("f", "2")
	dom := db.ActiveDomain()
	if len(dom) != 2 {
		t.Errorf("domain = %v", dom)
	}
}

// Randomized stress: interleaved inserts and probes across many index
// signatures stay consistent.
func TestRelationIndexStress(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	r := NewRelation(3)
	var mirror []Tuple
	for step := 0; step < 2000; step++ {
		if rng.Intn(3) > 0 {
			tpl := Tuple{int32(rng.Intn(8)), int32(rng.Intn(8)), int32(rng.Intn(8))}
			if r.Insert(tpl) {
				mirror = append(mirror, append(Tuple(nil), tpl...))
			}
			continue
		}
		nCols := 1 + rng.Intn(3)
		cols := rng.Perm(3)[:nCols]
		vals := make([]int32, nCols)
		for i := range vals {
			vals[i] = int32(rng.Intn(8))
		}
		got := len(matchIDs(r, cols, vals))
		want := 0
		for _, tpl := range mirror {
			ok := true
			for i, c := range cols {
				if tpl[c] != vals[i] {
					ok = false
				}
			}
			if ok {
				want++
			}
		}
		if got != want {
			t.Fatalf("step %d: match(%v,%v) = %d, want %d", step, cols, vals, got, want)
		}
	}
}
