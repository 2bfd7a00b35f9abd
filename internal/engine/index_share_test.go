package engine

import (
	"fmt"
	"reflect"
	"sync"
	"testing"
)

// Tests for copy-on-write index sets: Clone siblings probe one index set
// until either inserts, so evaluations over one Database build each base
// index once — and a sibling that inserts never sees, or is seen through,
// the other's indexes.

// countBuilds installs testHookIndexBuild for the rest of the test and
// returns the per-set, per-mask build counts it records.
func countBuilds(t *testing.T) map[*indexSet]map[uint64]int {
	t.Helper()
	var mu sync.Mutex
	builds := map[*indexSet]map[uint64]int{}
	testHookIndexBuild = func(s *indexSet, mask uint64) {
		mu.Lock()
		defer mu.Unlock()
		if builds[s] == nil {
			builds[s] = map[uint64]int{}
		}
		builds[s][mask]++
	}
	t.Cleanup(func() { testHookIndexBuild = nil })
	return builds
}

// reachDB is a chain of link hops whose tails uplink, with edge routers
// to ask about and a disconnected heartbeat.
func reachDB(chains, hops int) *Database {
	db := NewDatabase()
	for c := 0; c < chains; c++ {
		for i := 0; i+1 < hops; i++ {
			db.Add("link", fmt.Sprintf("r%d_%d", c, i), fmt.Sprintf("r%d_%d", c, i+1))
		}
		if c%3 != 2 {
			db.Add("uplink", fmt.Sprintf("r%d_%d", c, hops-1), "core")
		}
		db.Add("edge", fmt.Sprintf("r%d_0", c))
	}
	db.Add("heartbeat", "collector")
	return db
}

// TestEvalsShareBaseIndexes: two Evals over one Database build each base
// index exactly once. The second evaluation's clone of the database probes
// the index sets the first one's clone filled; only derived relations,
// which every evaluation computes afresh, build again.
func TestEvalsShareBaseIndexes(t *testing.T) {
	// The planner reads the reach(M) delta before link(R,M), so link is
	// probed by its second column.
	p := mustParse(t, `
reach(R) :- uplink(R,S).
reach(R) :- reach(M), link(R,M).
live(R) :- edge(R), reach(R), heartbeat(C).
?- live(R).
`)
	base := []string{"link", "uplink", "edge", "heartbeat"}
	// ReorderJoins is deprecated and ignored: both values must share
	// indexes alike.
	for _, reorder := range []bool{false, true} {
		t.Run(fmt.Sprintf("reorder=%v", reorder), func(t *testing.T) {
			db := reachDB(6, 8)
			builds := countBuilds(t)
			baseBuilds := func() int {
				n := 0
				for _, key := range base {
					rel, _ := db.Lookup(key)
					for _, c := range builds[rel.ixs.Load()] {
						n += c
					}
				}
				return n
			}
			opt := Options{ReorderJoins: reorder}
			first, err := Eval(p, db, opt)
			if err != nil {
				t.Fatal(err)
			}
			afterFirst := baseBuilds()
			if afterFirst == 0 {
				t.Fatal("the first evaluation probed no base index; the test no longer exercises sharing")
			}
			second, err := Eval(p, db, opt)
			if err != nil {
				t.Fatal(err)
			}
			if got := baseBuilds(); got != afterFirst {
				t.Errorf("base index builds: %d after the first Eval, %d after the second; want no rebuild", afterFirst, got)
			}
			for _, key := range base {
				rel, _ := db.Lookup(key)
				for mask, c := range builds[rel.ixs.Load()] {
					if c != 1 {
						t.Errorf("%s: index %b built %d times, want once", key, mask, c)
					}
				}
			}
			if a, b := first.Answers(p.Query), second.Answers(p.Query); !reflect.DeepEqual(a, b) || len(a) == 0 {
				t.Errorf("answers differ or are empty: %v vs %v", a, b)
			}
			if first.Stats != second.Stats {
				t.Errorf("stats differ: %+v vs %+v", first.Stats, second.Stats)
			}
		})
	}
}

// TestCloneIndexIsolation: whichever sibling builds an index and whichever
// inserts, in either order, the inserting sibling answers from its own rows
// — its new row included — and the other from the rows they shared. The
// oracle checks every probe's bucket walk against a brute-force scan.
func TestCloneIndexIsolation(t *testing.T) {
	refCheckEnabled = true
	defer func() { refCheckEnabled = false }()
	for _, builder := range []int{0, 1} {
		for _, inserter := range []int{0, 1} {
			for _, buildFirst := range []bool{true, false} {
				name := fmt.Sprintf("build=%d/insert=%d/buildFirst=%v", builder, inserter, buildFirst)
				t.Run(name, func(t *testing.T) {
					builds := countBuilds(t)
					src := NewRelation(2)
					for _, row := range []Tuple{{1, 10}, {2, 20}, {1, 30}} {
						src.Insert(row)
					}
					sides := [2]*Relation{src, src.Clone()}
					build := func() { matchIDs(sides[builder], []int{0}, []int32{1}) }
					insert := func() {
						if !sides[inserter].Insert(Tuple{1, 40}) {
							t.Fatal("fresh insert reported duplicate")
						}
					}
					if buildFirst {
						build()
						insert()
					} else {
						insert()
						build()
					}
					for i, side := range sides {
						want := []int32{0, 2}
						if i == inserter {
							want = append(want, 3)
						}
						if got := matchIDs(side, []int{0}, []int32{1}); !reflect.DeepEqual(got, want) {
							t.Errorf("side %d: Match = %v, want %v", i, got, want)
						}
					}
					if a, b := sides[0].ixs.Load(), sides[1].ixs.Load(); a == b {
						t.Error("the siblings still share one index set after an insert")
					}
					total := 0
					for _, m := range builds {
						total += m[colMask([]int{0})]
					}
					if total != 2 {
						t.Errorf("column-0 index built %d times across both siblings, want 2 (one per row set)", total)
					}
				})
			}
		}
	}
}

// TestResultReadableWhileSourceMutates builds an index on a source
// relation, evaluates over it, and then mutates the source while other
// goroutines probe and answer from the Result, which shares the source's
// index set. Run under -race: the source's first insert detaches it, so
// neither side ever writes what the other reads.
func TestResultReadableWhileSourceMutates(t *testing.T) {
	p := mustParse(t, `
reach(R) :- uplink(R,S).
reach(R) :- reach(M), link(R,M).
live(R) :- edge(R), reach(R), heartbeat(C).
?- live(R).
`)
	db := reachDB(4, 16)
	link, _ := db.Lookup("link")
	mid, _ := db.Syms.Lookup("r0_8")
	if len(matchIDs(link, []int{1}, []int32{mid})) != 1 {
		t.Fatal("source probe missed its row")
	}
	res, err := Eval(p, db, Options{})
	if err != nil {
		t.Fatal(err)
	}
	want := res.Answers(p.Query)
	out, _ := res.DB.Lookup("link")
	n := out.Len()

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				rows := out.Match([]int{g % 2}, []int32{mid})
				if _, ok := rows.Next(); !ok {
					t.Error("result probe lost its row")
					return
				}
				if got := res.Answers(p.Query); !reflect.DeepEqual(got, want) {
					t.Errorf("answers changed under a source mutation: %v", got)
					return
				}
			}
		}(g)
	}
	for i := 0; i < 200; i++ {
		db.Add("link", fmt.Sprintf("x%d", i), "r0_8")
		if got := len(matchIDs(link, []int{1}, []int32{mid})); got != i+2 {
			t.Fatalf("source probe after %d inserts: %d rows, want %d", i+1, got, i+2)
		}
	}
	wg.Wait()
	if out.Len() != n {
		t.Errorf("result relation grew from %d to %d rows", n, out.Len())
	}
}
