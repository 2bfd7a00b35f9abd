package engine

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
)

// Tests for how an evaluation stores its derived relations: indexes that
// catch up on probe (push no longer walks the index set, so an index is
// exactly as current as the last probe through it made it), the first
// delta split off a relation's startup storage, and storage sized from
// hints. What must hold is that nobody can tell, except by counting
// allocations.

// TestUnprobedIndexCostsNothingOnInsert: once built, an index that no
// probe reads again adds nothing to later inserts — they allocate exactly
// what they allocate on a relation that never had the index, and the
// index stays at the rows it was built over until a probe needs it.
func TestUnprobedIndexCostsNothingOnInsert(t *testing.T) {
	cols, vals := []int{1}, []int32{3}
	fill := func(r *Relation, from, to int) {
		buf := make(Tuple, 3)
		for i := from; i < to; i++ {
			buf[0], buf[1], buf[2] = int32(i), int32(i%8), int32(i/8)
			if !r.Insert(buf) {
				t.Fatal("fresh insert reported duplicate")
			}
		}
	}
	plain, indexed := NewRelation(3), NewRelation(3)
	fill(plain, 0, 64)
	fill(indexed, 0, 64)
	if got := len(matchIDs(indexed, cols, vals)); got != 8 {
		t.Fatalf("probe before the inserts: %d rows, want 8", got)
	}
	ix := indexed.ixs.Load().lookup(colMask(cols))
	measure := func(r *Relation) float64 {
		start := r.Len()
		return testing.AllocsPerRun(10, func() {
			fill(r, start, start+1000)
			start += 1000
		})
	}
	// Both relations run the same insert sequence, so their arenas and
	// tables grow at the same rows.
	a := measure(plain)
	b := measure(indexed)
	if a != b {
		t.Errorf("inserts after an unprobed index: %.0f allocs per 1000, %.0f without the index", b, a)
	}
	if got := ix.rows.Load(); got != 64 {
		t.Errorf("the unprobed index covers %d rows, want the 64 it was built over", got)
	}
	want := 0
	for i := 0; i < indexed.Len(); i++ {
		if indexed.Tuple(i)[1] == 3 {
			want++
		}
	}
	if got := len(matchIDs(indexed, cols, vals)); got != want {
		t.Errorf("probe after %d inserts: %d rows, want %d", indexed.Len(), got, want)
	}
	if got := int(ix.rows.Load()); got != indexed.Len() {
		t.Errorf("after the probe the index covers %d of %d rows", got, indexed.Len())
	}
}

// TestIndexCatchesUpOnProbe interleaves inserts with probes through
// several bound-column sets, each index falling behind by a different
// number of rows, at 0-, 4- and 8-bit fingerprints where collisions are
// routine. Every probe must yield exactly the matching rows in insertion
// order; the reference oracle checks each walk as well.
func TestIndexCatchesUpOnProbe(t *testing.T) {
	for _, mask := range []uint64{0, 0xF, 0xFF} {
		t.Run(fmt.Sprintf("mask%#x", mask), func(t *testing.T) {
			withFPMask(t, mask, func() {
				withRefCheck(t, func() {
					rng := rand.New(rand.NewSource(int64(mask) + 11))
					r := NewRelation(3)
					d := newDelta(3)
					colSets := [][]int{{0}, {1}, {0, 2}, {1, 2}}
					row := make(Tuple, 3)
					for round := 0; round < 40; round++ {
						for k := rng.Intn(40); k > 0; k-- {
							row[0], row[1], row[2] = int32(rng.Intn(12)), int32(rng.Intn(6)), int32(rng.Intn(30))
							if r.Insert(row) {
								d.appendNew(row)
							}
						}
						// Each round probes some index sets and skips others,
						// so the indexes lag by different amounts.
						for _, cols := range colSets {
							if rng.Intn(3) == 0 {
								continue
							}
							vals := make([]int32, len(cols))
							for i, c := range cols {
								vals[i] = int32(rng.Intn(6))
								if c == 2 {
									vals[i] = int32(rng.Intn(30))
								}
							}
							for _, rel := range []*Relation{r, d} {
								var want []int32
								for i := 0; i < rel.Len(); i++ {
									ok := true
									for j, c := range cols {
										ok = ok && rel.Tuple(i)[c] == vals[j]
									}
									if ok {
										want = append(want, int32(i))
									}
								}
								if got := matchIDs(rel, cols, vals); !reflect.DeepEqual(got, want) {
									t.Fatalf("round %d: Match(%v,%v) over %d rows = %v, want %v", round, cols, vals, rel.Len(), got, want)
								}
							}
						}
					}
				})
			})
		})
	}
}

// TestConcurrentMatchOnStaleResultIndex: an evaluation leaves an index on
// a derived relation behind — built by a pass, then passed by the rows
// later merges added. Goroutines probing the Result concurrently race to
// catch it up; run under -race, they must all see the same rows, and the
// rows a scan finds.
func TestConcurrentMatchOnStaleResultIndex(t *testing.T) {
	// Only pass 2 reads mid's delta, and with it the full reach by its
	// column; reach then grows for as many passes as the chains are long,
	// and no later version probes it by that column again.
	p := mustParse(t, `
reach(R) :- uplink(R,S).
reach(R) :- reach(M), link(R,M).
mid(R) :- edge(R).
hit(R) :- mid(R), reach(R).
?- hit(R).
`)
	res, err := Eval(p, reachDB(4, 16), Options{ReorderJoins: true})
	if err != nil {
		t.Fatal(err)
	}
	reach, _ := res.DB.Lookup("reach")
	var stale *index
	if s := reach.ixs.Load(); s != nil {
		for _, ix := range *s.all.Load() {
			if int(ix.rows.Load()) < reach.Len() {
				stale = ix
			}
		}
	}
	if stale == nil {
		t.Fatal("no index on reach is behind its rows; the test no longer exercises catch-up")
	}
	cols := stale.cols
	// Probe every value the indexed columns hold, and one they do not.
	var probes [][]int32
	var want [][]int32
	seen := map[string]int{}
	for row := 0; row < reach.Len(); row++ {
		vals := make([]int32, len(cols))
		for j, c := range cols {
			vals[j] = reach.Tuple(row)[c]
		}
		k := fmt.Sprint(vals)
		i, ok := seen[k]
		if !ok {
			i = len(probes)
			seen[k] = i
			probes = append(probes, vals)
			want = append(want, nil)
		}
		want[i] = append(want[i], int32(row))
	}
	probes = append(probes, make([]int32, len(cols)))
	for j := range cols {
		probes[len(probes)-1][j] = -1
	}
	want = append(want, nil)
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for k := range probes {
				i := (k + g*7) % len(probes)
				if got := matchIDs(reach, cols, probes[i]); !reflect.DeepEqual(got, want[i]) {
					t.Errorf("goroutine %d: Match(%v,%v) = %v, want %v", g, cols, probes[i], got, want[i])
					return
				}
			}
		}(g)
	}
	wg.Wait()
	if got := int(stale.rows.Load()); got != reach.Len() {
		t.Errorf("after the probes the index covers %d of %d rows", got, reach.Len())
	}
}

// TestSizeHintsInvisible: hints change capacity and nothing else. Every
// relation's rows in insertion order, Stats, the per-rule counters and
// the answers are the same with no hints, exact hints, hints four times
// too large or too small, and hints from another program.
func TestSizeHintsInvisible(t *testing.T) {
	progs := []struct {
		name string
		src  string
		db   *Database
	}{
		{"chain", tcSrc, chainDB(60)},
		{"nonlinear", "a(X,Y) :- p(X,Y).\na(X,Y) :- a(X,Z), a(Z,Y).\n?- a(X,Y).\n", chainDB(30)},
		{"exists", `
reach(R) :- uplink(R,S).
reach(R) :- reach(M), link(R,M).
live(R) :- edge(R), reach(R), heartbeat(C).
?- live(R).
`, reachDB(6, 12)},
	}
	for _, pr := range progs {
		t.Run(pr.name, func(t *testing.T) {
			p := mustParse(t, pr.src)
			opt := Options{ReorderJoins: true, BooleanCut: true}
			base, err := Eval(p, pr.db, opt)
			if err != nil {
				t.Fatal(err)
			}
			exact := SizeHints(base)
			if len(exact) == 0 {
				t.Fatal("a complete evaluation reported no sizes")
			}
			scaled := func(f func(int) int) []int {
				out := make([]int, len(exact))
				for i, n := range exact {
					out[i] = f(n)
				}
				return out
			}
			hints := map[string][]int{
				"exact":   exact,
				"over":    scaled(func(n int) int { return 4 * n }),
				"under":   scaled(func(n int) int { return n / 4 }),
				"foreign": {7, 0, 300, 1},
			}
			for name, h := range hints {
				res, err := Eval(p, pr.db, WithSizeHints(opt, h))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if res.Stats != base.Stats {
					t.Errorf("%s: stats %+v, want %+v", name, res.Stats, base.Stats)
				}
				if !reflect.DeepEqual(res.Trace.Rules, base.Trace.Rules) {
					t.Errorf("%s: per-rule counters differ", name)
				}
				for _, key := range base.DB.Keys() {
					want, _ := base.DB.Lookup(key)
					got, _ := res.DB.Lookup(key)
					if !reflect.DeepEqual(got.Tuples(), want.Tuples()) {
						t.Errorf("%s: relation %s differs in rows or order", name, key)
					}
				}
				if !reflect.DeepEqual(SizeHints(res), exact) {
					t.Errorf("%s: sizes %v, want %v", name, SizeHints(res), exact)
				}
			}
		})
	}
}

// TestSplitDeltaOfSharedSeeds: facts seeded for a derived predicate sit in
// storage the evaluation shares with its input database, index set
// included. When the startup pass adds nothing to them, the first delta
// takes over that shared storage, a probe reads it through the shared
// set, and once recycled it copies before its first append. Two
// evaluations over one database must leave the input's rows as they were
// and agree with each other, under the reference oracle.
func TestSplitDeltaOfSharedSeeds(t *testing.T) {
	withRefCheck(t, func() {
		// s gains nothing at startup: never is empty and t starts empty.
		// From pass 2 on s grows every pass through t, and u probes s by
		// its column in textual order.
		p := mustParse(t, `
s(X) :- never(X).
s(Y) :- t(X), e(X,Y).
t(X) :- s(X).
t(Y) :- t(X), e(X,Y).
u(X) :- e(Y,X), s(Y).
?- s(X).
`)
		db := NewDatabase()
		for i := 0; i < 20; i++ {
			db.Add("e", fmt.Sprint(i), fmt.Sprint(i+1))
		}
		db.Relation("never", 1)
		db.Add("s", "0")
		seeds, _ := db.Lookup("s")
		var answers [][][]string
		for i := 0; i < 2; i++ {
			res, err := Eval(p, db, Options{})
			if err != nil {
				t.Fatal(err)
			}
			answers = append(answers, res.Answers(p.Query))
		}
		if !reflect.DeepEqual(answers[0], answers[1]) || len(answers[0]) != 21 {
			t.Errorf("answers: %v then %v, want the 21 nodes twice", answers[0], answers[1])
		}
		if seeds.Len() != 1 || len(matchIDs(seeds, []int{0}, []int32{seeds.Tuple(0)[0]})) != 1 {
			t.Errorf("the input's seed relation changed: %v", seeds.Tuples())
		}
	})
}
