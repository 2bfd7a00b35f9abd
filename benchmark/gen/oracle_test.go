package gen

import (
	"reflect"
	"testing"
)

// The expected answers below are written by hand, not computed.

func TestOracleTransitiveClosure(t *testing.T) {
	p := &Program{
		Rules: tcRules,
		Facts: []Atom{MustAtom("e(a,b)"), MustAtom("e(b,c)"), MustAtom("e(c,a)"), MustAtom("e(c,d)")},
	}
	db := Evaluate(p)
	for _, tc := range []struct {
		goal string
		want [][]string
	}{
		{"tc(d,X)", nil},
		{"tc(c,X)", [][]string{{"c", "a"}, {"c", "b"}, {"c", "c"}, {"c", "d"}}},
		{"tc(X,d)", [][]string{{"a", "d"}, {"b", "d"}, {"c", "d"}}},
		{"tc(X,X)", [][]string{{"a", "a"}, {"b", "b"}, {"c", "c"}}},
		{"tc(a,a)", [][]string{{"a", "a"}}},
		{"tc(d,d)", nil},
		// An anonymous position is existential: dropped, then deduplicated.
		{"tc(X,_)", [][]string{{"a"}, {"b"}, {"c"}}},
		{"tc(_,X)", [][]string{{"a"}, {"b"}, {"c"}, {"d"}}},
	} {
		if got := Answers(db, MustAtom(tc.goal)); !reflect.DeepEqual(got, tc.want) {
			t.Errorf("%s: got %v, want %v", tc.goal, got, tc.want)
		}
	}
	if n := len(Answers(db, MustAtom("tc(X,Y)"))); n != 12 {
		t.Errorf("tc(X,Y): %d rows, want 12 (a, b and c each reach all four nodes; d reaches none)", n)
	}
}

func TestOracleExistentialAndDisconnected(t *testing.T) {
	p := &Program{
		Rules: liveRules,
		Facts: []Atom{
			MustAtom("link(r1,r2)"), MustAtom("link(r2,r3)"), MustAtom("uplink(r3,core)"),
			MustAtom("link(r4,r5)"), // r4 and r5 never reach an uplink
			MustAtom("edge(r1)"), MustAtom("edge(r3)"), MustAtom("edge(r4)"),
		},
	}
	if got := Answers(Evaluate(p), MustAtom("live(R)")); got != nil {
		t.Errorf("without a heartbeat nothing is live, got %v", got)
	}
	p.Facts = append(p.Facts, MustAtom("heartbeat(h)"))
	want := [][]string{{"r1"}, {"r3"}}
	if got := Answers(Evaluate(p), MustAtom("live(R)")); !reflect.DeepEqual(got, want) {
		t.Errorf("live(R): got %v, want %v", got, want)
	}
}

func TestOracleSameGenerationAndConstantsInRules(t *testing.T) {
	p := &Program{
		Rules: MustRules(`
sg(X,Y) :- up(X,U), sg(U,V), dn(V,Y).
sg(X,Y) :- flat(X,Y).
special(X) :- sg(ann,X).
`),
		Facts: []Atom{
			MustAtom("up(ann,mum)"), MustAtom("up(bob,dad)"),
			MustAtom("flat(mum,dad)"), MustAtom("dn(dad,bob)"), MustAtom("dn(dad,cat)"),
		},
	}
	db := Evaluate(p)
	if got, want := Answers(db, MustAtom("sg(ann,Y)")), [][]string{{"ann", "bob"}, {"ann", "cat"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("sg(ann,Y): got %v, want %v", got, want)
	}
	if got, want := Answers(db, MustAtom("special(X)")), [][]string{{"bob"}, {"cat"}}; !reflect.DeepEqual(got, want) {
		t.Errorf("special(X): got %v, want %v", got, want)
	}
}

func TestSameRowsIsASetComparison(t *testing.T) {
	a := [][]string{{"x", "1"}, {"y", "2"}}
	if !SameRows([][]string{{"y", "2"}, {"x", "1"}}, a) {
		t.Error("order must not matter")
	}
	if SameRows([][]string{{"x", "1"}, {"x", "1"}}, a) {
		t.Error("a duplicated row must not stand in for a missing one")
	}
	if SameRows([][]string{{"x", "1"}}, a) {
		t.Error("a missing row must be noticed")
	}
}
