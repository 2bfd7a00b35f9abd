package engine

import (
	"context"
	"strings"
	"testing"
)

// mustPanic runs f and fails unless it panics with a message containing
// want.
func mustPanic(t *testing.T, want string, f func()) {
	t.Helper()
	defer func() {
		t.Helper()
		rec := recover()
		if rec == nil {
			t.Fatalf("no panic, want one mentioning %q", want)
		}
		if msg, _ := rec.(string); !strings.Contains(msg, want) {
			t.Fatalf("panic %v, want one mentioning %q", rec, want)
		}
	}()
	f()
}

// TestDeltaRejectsMembership: a delta keeps no membership table, so asking
// it about membership is an engine bug that must panic rather than answer
// a silent false.
func TestDeltaRejectsMembership(t *testing.T) {
	d := newDelta(2)
	d.appendNew(Tuple{1, 2})
	if d.Len() != 1 || d.Tuple(0)[1] != 2 {
		t.Fatalf("delta holds %v", d.Tuples())
	}
	mustPanic(t, "Contains on an append-only delta", func() { d.Contains(Tuple{1, 2}) })
	mustPanic(t, "Insert on an append-only delta", func() { d.Insert(Tuple{3, 4}) })
	mustPanic(t, "appendNew on a relation with a membership table", func() { NewRelation(2).appendNew(Tuple{1, 2}) })
}

// TestDeltaIndexStaysCurrent: rows appended after an index was built are
// found by the next probe through it.
func TestDeltaIndexStaysCurrent(t *testing.T) {
	d := newDelta(2)
	d.appendNew(Tuple{1, 2})
	d.Match([]int{0}, []int32{1}) // builds the index on column 0
	d.appendNew(Tuple{3, 4})
	d.appendNew(Tuple{1, 5})
	var got []int32
	for rows := d.Match([]int{0}, []int32{1}); ; {
		row, ok := rows.Next()
		if !ok {
			break
		}
		got = append(got, row)
	}
	if len(got) != 2 || got[0] != 0 || got[1] != 2 {
		t.Fatalf("Match(col 0 = 1) = rows %v, want [0 2]", got)
	}
}

// TestAppendNewDuplicatePanicsUnderRefCheck: appendNew trusts its caller
// that the row is new; the differential oracle checks that trust.
func TestAppendNewDuplicatePanicsUnderRefCheck(t *testing.T) {
	refCheckEnabled = true
	defer func() { refCheckEnabled = false }()
	d := newDelta(2)
	d.appendNew(Tuple{1, 2})
	d.appendNew(Tuple{2, 1})
	mustPanic(t, "refcheck", func() { d.appendNew(Tuple{1, 2}) })
}

// assertSlotsAreDB checks that the evaluator's slot array and its output
// database hold exactly the same relations: every bound slot's relation is
// the one the database holds under its key, and every database relation
// the program reads or derives is bound to its slot.
func assertSlotsAreDB(t *testing.T, ev *evaluator, db *Database) {
	t.Helper()
	if ev.out != db {
		t.Fatal("Result.DB is not the evaluator's output database")
	}
	for s, rel := range ev.rels {
		key := ev.preds[s].key
		got, ok := db.Lookup(key)
		if rel == nil {
			if ok {
				t.Errorf("slot %d (%s) is unbound but the database holds %s", s, key, key)
			}
			continue
		}
		if !ok || got != rel {
			t.Errorf("slot %d (%s): the database holds another relation", s, key)
		}
	}
	for _, key := range db.Keys() {
		if _, ok := ev.slotOf[key]; !ok {
			t.Errorf("database relation %s has no slot", key)
		}
	}
}

// TestResultDBIsSlotArray: after Eval, Update and Retract (whose phase 2
// replaces relations) the Result's database and the evaluator's slots
// agree relation for relation.
func TestResultDBIsSlotArray(t *testing.T) {
	p := mustParse(t, "tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\n?- tc(X,Y).\n")
	db := NewDatabase()
	for _, e := range [][2]string{{"a", "b"}, {"b", "c"}, {"c", "d"}} {
		db.Add("e", e[0], e[1])
	}
	ctx := context.Background()
	ev, err := newEvaluator(ctx, p, db, Options{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	res, err := ev.finish(ev.runSemiNaive())
	if err != nil {
		t.Fatal(err)
	}
	assertSlotsAreDB(t, ev, res.DB)

	added := NewDatabase()
	added.Add("e", "d", "e")
	added.Add("f", "x") // a base key the program never mentions gets a slot
	ev, err = newEvaluator(ctx, p, res.DB, Options{}, &maintenance{delta: added})
	if err != nil {
		t.Fatal(err)
	}
	if res, err = ev.finish(ev.update(added)); err != nil {
		t.Fatal(err)
	}
	assertSlotsAreDB(t, ev, res.DB)
	if got := res.DB.Count("tc"); got != 10 {
		t.Fatalf("after Update tc has %d rows, want 10", got)
	}

	removed := NewDatabase()
	removed.Add("e", "b", "c")
	removed.Add("f", "x")
	ev, err = newEvaluator(ctx, p, res.DB, Options{}, &maintenance{delta: removed})
	if err != nil {
		t.Fatal(err)
	}
	before := ev.rels[ev.slotOf["tc"]]
	if res, err = ev.finish(ev.retract(removed)); err != nil {
		t.Fatal(err)
	}
	assertSlotsAreDB(t, ev, res.DB)
	if after, _ := res.DB.Lookup("tc"); after == before || res.DB.Count("tc") != 4 || res.DB.Count("f") != 0 {
		t.Fatalf("after Retract tc has %d rows (replaced: %v) and f %d, want 4 replaced rows and 0",
			res.DB.Count("tc"), after != before, res.DB.Count("f"))
	}
}
