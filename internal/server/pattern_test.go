package server

import (
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"existdlog"
	"existdlog/internal/engine"
	"existdlog/internal/prepare"
)

// coldRulebook is the compile_cold benchmark's rulebook: seven small
// programs under disjoint predicate names. The last rule adds constants
// the served goals also ask about.
const coldRulebook = `
q1(X) :- a1(X,Y).
a1(X,Y) :- p1(X,Z), a1(Z,Y).
a1(X,Y) :- p1(X,Y).
p2(X,U) :- q21(X,Y), q22(Y,Z), q23(U,V), q24(V), q25(W).
q24(X) :- q26(X).
p9(X,Y) :- t9(X,Y), g93(Y,Z,U).
p9(X,Y) :- s9(X,Z,U), g91(Z,U,Y).
s9(X,Z,U) :- t9(X,W), g92(W,Z,U).
s9(X,Z,U) :- t9(X,V), g93(V,Z,U), g94(U,W).
t9(X,Y) :- b9(X,Y).
query12(X,Y) :- p12(X,Y,Z).
p12(X,Y,Z) :- up12(X,X1), p12(X1,Y1,Z), dn12(Y1,Y), c12(Z).
p12(X,Y,Z) :- b12(X,Y,Z).
buddyless(X) :- person(X), sg(X,Y).
sg(X,Y) :- up(X,U), sg(U,V), dn(V,Y).
sg(X,Y) :- flat(X,Y).
live6(R) :- reach6(R,S), heartbeat6(C).
reach6(R,S) :- link6(R,M), reach6(M,S).
reach6(R,S) :- link6(R,S).
tc7(X,Y) :- e7(X,Z), tc7(Z,Y).
tc7(X,Y) :- e7(X,Y).
q1(r1) :- p1(r2,Y).
`

// coldShapes are the compile_cold goal shapes; %s is the constant.
var coldShapes = []string{
	"q1(%s)", "p2(%s,_)", "p9(%s,_)", "query12(%s,Y)", "buddyless(%s)", "live6(%s)", "tc7(%s,X)",
}

// coldFacts fills the rulebook's base relations over v0..v11, plus the
// rule constants r1 and r2 as nodes of p1.
func coldFacts(rng *rand.Rand) string {
	var sb strings.Builder
	node := func() string { return fmt.Sprintf("v%d", rng.Intn(12)) }
	for _, rel := range []struct {
		pred     string
		arity, n int
	}{
		{"p1", 2, 16},
		{"q21", 2, 12}, {"q22", 2, 12}, {"q23", 2, 8}, {"q26", 1, 6}, {"q25", 1, 3},
		{"b9", 2, 14}, {"g91", 3, 14}, {"g92", 3, 14}, {"g93", 3, 14}, {"g94", 2, 10},
		{"up12", 2, 12}, {"dn12", 2, 12}, {"c12", 1, 8}, {"b12", 3, 12},
		{"person", 1, 12}, {"up", 2, 14}, {"dn", 2, 14}, {"flat", 2, 10},
		{"link6", 2, 16}, {"heartbeat6", 1, 2},
		{"e7", 2, 18},
	} {
		for i := 0; i < rel.n; i++ {
			args := make([]string, rel.arity)
			for j := range args {
				args[j] = node()
			}
			fmt.Fprintf(&sb, "%s(%s).\n", rel.pred, strings.Join(args, ","))
		}
	}
	sb.WriteString("p1(r2,v3). p1(v3,r1).\n")
	return sb.String()
}

// neededRows keeps the columns kept of rows, without duplicates: a served
// goal's answers omit its anonymous positions, which the optimizer
// projects away.
func neededRows(rows [][]string, kept []int) [][]string {
	var out [][]string
	seen := map[string]bool{}
	for _, r := range rows {
		var cols []string
		for _, i := range kept {
			cols = append(cols, r[i])
		}
		if key := strings.Join(cols, ","); !seen[key] {
			seen[key] = true
			out = append(out, cols)
		}
	}
	return out
}

// TestServedPatternsMatchScratch asks one server every compile_cold goal
// shape with 50 constants each: present in the facts, absent, and equal
// to a rule constant. Only each shape's first request compiles; every
// later one is served from the same cached entry with its own constant
// bound at answer time, and must still answer exactly the scratch
// evaluation of the unoptimized program and report the optimizer's goal
// for its own constant.
func TestServedPatternsMatchScratch(t *testing.T) {
	src := coldRulebook + coldFacts(rand.New(rand.NewSource(32)))
	s, ts := newTestServer(t, Config{Source: src})
	edb := s.Store().Current().EDB
	consts := []string{"r1", "r2"}
	for i := 0; i < 12; i++ {
		consts = append(consts, fmt.Sprintf("v%d", i))
	}
	for i := len(consts); i < 50; i++ {
		consts = append(consts, fmt.Sprintf("f%d", i))
	}
	chained, answered := 0, map[string]int{}
	for _, shape := range coldShapes {
		for i, c := range consts {
			goal := fmt.Sprintf(shape, c)
			q, err := parseGoal(goal)
			if err != nil {
				t.Fatal(err)
			}
			var kept []int
			for j, a := range q.Args {
				if !a.IsAnon() {
					kept = append(kept, j)
				}
			}
			prog := s.base.Clone()
			prog.Query = q
			ref, err := engine.Eval(prog, edb, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want := sortedRows(neededRows(ref.Answers(q), kept))
			if len(want) > 0 {
				answered[shape]++
			}
			opt, err := existdlog.Optimize(prog, existdlog.DefaultOptions())
			if err != nil {
				t.Fatal(err)
			}

			resp, out := postQuery(t, ts.URL, `{"goal": "`+goal+`"}`)
			if resp.StatusCode != 200 {
				t.Fatalf("%s: status %d (%v)", goal, resp.StatusCode, out)
			}
			if out["cached"].(bool) != (i > 0) {
				t.Errorf("%s: cached = %v after %d goals of its shape", goal, out["cached"], i)
			}
			if out["goal"] != opt.Program.Query.String() {
				t.Errorf("%s: reported goal %v, want %s", goal, out["goal"], opt.Program.Query)
			}
			if got := sortedRows(out["answers"]); strings.Join(got, " ") != strings.Join(want, " ") {
				t.Errorf("%s: answers %v, scratch evaluation %v", goal, got, want)
			}
			if c, _, _ := s.compile(q); c.Rewrite == prepare.Chain {
				chained++
			}
		}
	}
	for _, shape := range coldShapes {
		if answered[shape] < 2 {
			t.Errorf("%s: %d constants with answers, want at least 2", shape, answered[shape])
		}
	}
	if chained != len(consts) {
		t.Errorf("%d goals served by the chain rewrite, want every tc7 goal (%d)", chained, len(consts))
	}
	if n := s.Registry().Snapshot().CacheEntries; n != int64(len(coldShapes)) {
		t.Errorf("%d cache entries for %d shapes", n, len(coldShapes))
	}
}

// BenchmarkCompileCold is the compile_cold workload in process: the
// rulebook's seven goal shapes asked in turn through the handler, each op
// with a constant never asked before and absent from the facts. One
// request per shape compiles its pattern before the timer starts, so
// every timed op is a compile-cache hit that binds its new constant into
// the prepared program: seven patterns, one of them chain-rewritten.
// flight1024 serves with serve's default flight recorder, flight0 with
// tracing off.
func BenchmarkCompileCold(b *testing.B) {
	for _, flight := range []int{1024, 0} {
		b.Run(fmt.Sprintf("flight%d", flight), func(b *testing.B) { benchCompileCold(b, flight) })
	}
}

// benchCompileCold is one BenchmarkCompileCold sub-benchmark, serving
// with a flight recorder of the given size.
func benchCompileCold(b *testing.B, flight int) {
	s, err := New(Config{Source: coldRulebook + coldFacts(rand.New(rand.NewSource(32))), FlightSize: flight})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	ask := func(i int, c string) string {
		return `{"goal": "` + fmt.Sprintf(coldShapes[i%len(coldShapes)], c) + `"}`
	}
	for i := range coldShapes {
		if rec := serveBody(b, h, ask(i, "v0")); rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %s", ask(i, "v0"), rec.Code, rec.Body)
		}
	}
	bodies := make([]string, b.N)
	for i := range bodies {
		bodies[i] = ask(i, fmt.Sprintf("f%d", i))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(discardWriter{http.Header{}}, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(bodies[i])))
	}
}
