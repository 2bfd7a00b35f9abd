package engine

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// compiledSrc has rule constants (k9 in a body, mark in a head), the
// succ and lt builtins, a negated neq (a builtin only while the database
// has no neq relation, and rejected as one) and a recursive derived
// predicate a.
const compiledSrc = `
a(X,Y) :- e(X,Y).
a(X,Y) :- a(X,Z), e(Z,Y).
hit(X) :- a(X,k9).
tag(X,mark) :- hit(X).
up(X,Y) :- n(X), succ(X,Y).
less(X,Y) :- n(X), n(Y), lt(X,Y).
?- tag(X,Y).
`

const negBuiltinSrc = `
odd(X) :- n(X), not neq(X,3).
?- odd(X).
`

// TestCompiledReuseMatchesFresh evaluates one Compiled over a sequence of
// databases and checks every run against a fresh EvalContext of the same
// program: the same error, or the same relations (rows in order), Stats
// and Trace. The sequence covers what a compiled program cannot know
// about the database it will run on: rule constants the database interns
// late or in another order, relations under builtin keys, arity
// conflicts and seed facts for derived predicates.
func TestCompiledReuseMatchesFresh(t *testing.T) {
	chain := func(db *Database, nodes ...string) *Database {
		for i := 0; i+1 < len(nodes); i++ {
			db.Add("e", nodes[i], nodes[i+1])
		}
		for i := 1; i <= 5; i++ {
			db.Add("n", fmt.Sprint(i))
		}
		return db
	}
	dbs := []struct {
		name string
		db   func() *Database
	}{
		{"k9 absent", func() *Database { return chain(NewDatabase(), "1", "2", "3", "4") }},
		{"k9 interned last", func() *Database { return chain(NewDatabase(), "1", "2", "3", "k9") }},
		{"constants before k9", func() *Database {
			db := NewDatabase()
			db.Add("other", "z1", "z2", "mark")
			return chain(db, "z2", "k9", "z1", "k9")
		}},
		{"lt relation", func() *Database {
			db := chain(NewDatabase(), "1", "k9")
			db.Add("lt", "5", "1")
			return db
		}},
		{"succ relation", func() *Database {
			db := chain(NewDatabase(), "2", "k9")
			db.Add("succ", "1", "7")
			db.Add("succ", "4", "x")
			return db
		}},
		{"arity conflict", func() *Database {
			db := chain(NewDatabase(), "1", "k9")
			db.Add("hit", "1", "2")
			return db
		}},
		{"derived seeds", func() *Database {
			db := chain(NewDatabase(), "1", "2")
			db.Add("a", "2", "k9")
			db.Add("a", "q", "r")
			db.Add("tag", "s", "t")
			return db
		}},
		{"k9 absent again", func() *Database { return chain(NewDatabase(), "1", "2", "3", "4") }},
	}
	for _, src := range []string{compiledSrc, negBuiltinSrc} {
		p := mustParse(t, src)
		c, err := Compile(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, shadowNeq := range []bool{false, true} {
			for _, d := range dbs {
				db := d.db()
				if shadowNeq {
					db.Add("neq", "3", "3")
				}
				name := fmt.Sprintf("%s/neq=%v", d.name, shadowNeq)
				opt := Options{BooleanCut: true, Trace: true, TrackProvenance: true}
				got, gotErr := c.Run(context.Background(), db.Clone(), opt)
				want, wantErr := EvalContext(context.Background(), p, db, opt)
				if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
					t.Errorf("%s: error %v, fresh %v", name, gotErr, wantErr)
					continue
				}
				// The fresh evaluation compiles through Compile as well, so
				// the reading of the builtin keys is also checked against
				// answers written out here.
				if err := checkBuiltinReading(src, d.name, shadowNeq, want, wantErr); err != nil {
					t.Errorf("%s: %v", name, err)
				}
				if wantErr != nil {
					var ae *ArityMismatchError
					if isArity := errors.As(gotErr, &ae); isArity != errors.As(wantErr, &ae) || isArity != (src == compiledSrc && d.name == "arity conflict") {
						t.Errorf("%s: error %v, fresh %v", name, gotErr, wantErr)
					}
					continue
				}
				if got.Stats != want.Stats {
					t.Errorf("%s: stats %+v, fresh %+v", name, got.Stats, want.Stats)
				}
				if !reflect.DeepEqual(got.Trace, want.Trace) {
					t.Errorf("%s: traces differ", name)
				}
				if !reflect.DeepEqual(got.DB.Keys(), want.DB.Keys()) {
					t.Errorf("%s: relations %v, fresh %v", name, got.DB.Keys(), want.DB.Keys())
				}
				for _, key := range want.DB.Keys() {
					if g, w := got.DB.Facts(key), want.DB.Facts(key); !reflect.DeepEqual(g, w) {
						t.Errorf("%s: %s = %v, fresh %v", name, key, g, w)
					}
				}
			}
		}
	}
}

// checkBuiltinReading checks the relations that read succ, lt and neq in
// TestCompiledReuseMatchesFresh: the builtin where the database has no
// relation under its key, that relation where it has.
func checkBuiltinReading(src, db string, shadowNeq bool, res *Result, err error) error {
	if src == negBuiltinSrc {
		if !shadowNeq {
			if err == nil || !strings.Contains(err.Error(), "negated builtin") {
				return fmt.Errorf("error %v, want the negated builtin rejected", err)
			}
			return nil
		}
		if err != nil || fmt.Sprint(res.DB.Facts("odd")) != "[[1] [2] [4] [5]]" {
			return fmt.Errorf("odd = %v (error %v), want [[1] [2] [4] [5]]", res.DB.Facts("odd"), err)
		}
		return nil
	}
	if db == "arity conflict" {
		return nil
	}
	up, less := "[[1 2] [2 3] [3 4] [4 5] [5 6]]", "[[1 2] [1 3] [1 4] [1 5] [2 3] [2 4] [2 5] [3 4] [3 5] [4 5]]"
	switch db {
	case "succ relation":
		up = "[[1 7] [4 x]]"
	case "lt relation":
		less = "[[5 1]]"
	}
	if got := fmt.Sprint(res.DB.Facts("up")); got != up {
		return fmt.Errorf("up = %s, want %s", got, up)
	}
	if got := fmt.Sprint(res.DB.Facts("less")); got != less {
		return fmt.Errorf("less = %s, want %s", got, less)
	}
	return nil
}

// TestCompiledRunsConcurrently runs one Compiled from many goroutines over
// clones of one database that intern different constants first; under
// -race this checks that an evaluation never writes its Compiled.
func TestCompiledRunsConcurrently(t *testing.T) {
	p := mustParse(t, compiledSrc)
	c, err := Compile(p)
	if err != nil {
		t.Fatal(err)
	}
	base := NewDatabase()
	for _, e := range [][2]string{{"1", "2"}, {"2", "k9"}, {"k9", "3"}} {
		base.Add("e", e[0], e[1])
	}
	base.Add("n", "1")
	want, err := EvalContext(context.Background(), p, base, Options{})
	if err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 8)
	for g := 0; g < 8; g++ {
		go func() {
			db := base.Clone()
			db.Add("own", fmt.Sprint("g", g))
			if g%2 == 1 {
				db.Add("lt", "1", "1")
			}
			res, err := c.Run(context.Background(), db, Options{})
			if err == nil && !reflect.DeepEqual(res.Answers(p.Query), want.Answers(p.Query)) {
				err = fmt.Errorf("goroutine %d: answers %v, want %v", g, res.Answers(p.Query), want.Answers(p.Query))
			}
			errs <- err
		}()
	}
	for g := 0; g < 8; g++ {
		if err := <-errs; err != nil {
			t.Error(err)
		}
	}
}
