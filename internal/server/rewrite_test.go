package server

import (
	"fmt"
	"net/http"
	"sort"
	"strings"
	"testing"

	"existdlog"
	"existdlog/internal/engine"
	"existdlog/internal/prepare"
)

// cyclicEdges is a 6-node graph with two cycles (0→1→2→0 and 3→4→5→3),
// a bridge between them and a node (6) reachable but reaching nothing.
const cyclicEdges = `p(0,1). p(1,2). p(2,0). p(2,3). p(3,4). p(4,5). p(5,3). p(5,6).
`

// sortedRows renders answer rows as a sorted list, for set comparison.
func sortedRows(rows any) []string {
	var out []string
	switch rs := rows.(type) {
	case []any:
		for _, r := range rs {
			var cols []string
			for _, c := range r.([]any) {
				cols = append(cols, c.(string))
			}
			out = append(out, strings.Join(cols, ","))
		}
	case [][]string:
		for _, r := range rs {
			out = append(out, strings.Join(r, ","))
		}
	}
	sort.Strings(out)
	return out
}

// chainRules are a right- and a left-linear closure of p.
var chainRules = map[string]string{
	"right-linear": "a(X,Y) :- p(X,Z), a(Z,Y).\na(X,Y) :- p(X,Y).\n",
	"left-linear":  "a(X,Y) :- a(X,Z), p(Z,Y).\na(X,Y) :- p(X,Y).\n",
}

// TestChainGoalRewrite serves a right- and a left-linear closure over a
// cyclic graph and asks the bound goal of every node in both directions:
// each is served by the seeded Theorem 3.3 program, answers exactly what a
// scratch evaluation of the program as written selects, and reports the
// optimizer's goal for its own constant rather than the rewrite's answer
// atom. One program serves each direction: only node 0's goals compile.
func TestChainGoalRewrite(t *testing.T) {
	for name, rules := range chainRules {
		t.Run(name, func(t *testing.T) {
			s, ts := newTestServer(t, Config{Source: rules + cyclicEdges})
			edb := s.Store().Current().EDB
			for node := 0; node <= 7; node++ { // 7 is absent from the graph
				for _, goal := range []string{fmt.Sprintf("a(%d,Y)", node), fmt.Sprintf("a(X,%d)", node)} {
					q, err := parseGoal(goal)
					if err != nil {
						t.Fatal(err)
					}
					prog := s.base.Clone()
					prog.Query = q
					ref, err := engine.Eval(prog, edb, engine.Options{})
					if err != nil {
						t.Fatal(err)
					}
					want := sortedRows(ref.Answers(q))
					opt, err := existdlog.Optimize(prog, existdlog.DefaultOptions())
					if err != nil {
						t.Fatal(err)
					}

					body := `{"goal": "` + goal + `"}`
					for _, cached := range []bool{node > 0, true} {
						resp, out := postQuery(t, ts.URL, body)
						if resp.StatusCode != 200 {
							t.Fatalf("%s: status %d (%v)", goal, resp.StatusCode, out)
						}
						if out["cached"].(bool) != cached {
							t.Errorf("%s: cached = %v, want %v", goal, out["cached"], cached)
						}
						if got := sortedRows(out["answers"]); strings.Join(got, " ") != strings.Join(want, " ") {
							t.Errorf("%s: answers %v, scratch evaluation %v", goal, got, want)
						}
						if int(out["count"].(float64)) != len(want) {
							t.Errorf("%s: count %v, want %d", goal, out["count"], len(want))
						}
						if out["goal"] != opt.Program.Query.String() {
							t.Errorf("%s: reported goal %v, want the optimized goal %s", goal, out["goal"], opt.Program.Query)
						}
					}
					if c, _, _ := s.compile(q); c.Rewrite != prepare.Chain {
						t.Errorf("%s: compiled without the chain rewrite:\n%s", goal, c.Program)
					}
				}
			}
		})
	}
}

// TestChainRewriteSeriesBounded: the registry names a rewritten program's
// rules without their seed, so bound goals over ever-new constants leave
// the number of per-rule series in a scrape unchanged.
func TestChainRewriteSeriesBounded(t *testing.T) {
	for name, rules := range chainRules {
		t.Run(name, func(t *testing.T) {
			_, ts := newTestServer(t, Config{Source: rules + cyclicEdges})
			ask := func(node int) {
				for _, goal := range []string{fmt.Sprintf("a(%d,Y)", node), fmt.Sprintf("a(X,%d)", node)} {
					if resp, out := postQuery(t, ts.URL, `{"goal": "`+goal+`"}`); resp.StatusCode != 200 {
						t.Fatalf("%s: status %d (%v)", goal, resp.StatusCode, out)
					}
				}
			}
			series := func() []string {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Fatal(err)
				}
				raw, err := readAll(resp)
				if err != nil {
					t.Fatal(err)
				}
				var out []string
				for _, line := range strings.Split(string(raw), "\n") {
					if strings.HasPrefix(line, "existdlog_rule_") {
						out = append(out, line[:strings.LastIndexByte(line, ' ')])
					}
				}
				return out
			}
			ask(0)
			first := series()
			for node := 1; node <= 40; node++ { // most are absent from the graph
				ask(node)
			}
			if got := series(); strings.Join(got, "\n") != strings.Join(first, "\n") {
				t.Errorf("per-rule series grew from %d to %d:\n%s", len(first), len(got), strings.Join(got, "\n"))
			}
			for _, line := range first {
				if strings.Contains(line, "(0,") || strings.Contains(line, ",0)") {
					t.Errorf("series names the seed: %s", line)
				}
			}
		})
	}
}

// TestDerivedFactsRejectedAtLoad pins the assumption the chain rewrite
// rests on: a derived relation gets no facts of its own, because the
// seeded program never reads it. A source carrying one fails to load
// (writes carrying one are refused by Store.validate).
func TestDerivedFactsRejectedAtLoad(t *testing.T) {
	src := "tc(X,Y) :- e(X,Z), tc(Z,Y).\ntc(X,Y) :- e(X,Y).\ne(a,b).\ntc(b,q).\n"
	if _, err := New(Config{Source: src}); err == nil || !strings.Contains(err.Error(), "the IDB must contain no facts") {
		t.Errorf("New accepted a fact for a derived predicate: err %v", err)
	}
}

// TestChainSeedIsOuterScan pins the seed rule's join order: the one-row
// seed relation is scanned first and the edge relation probed by its
// node, never the edge relation scanned and the seed probed per edge.
func TestChainSeedIsOuterScan(t *testing.T) {
	_, ts := newTestServer(t, Config{Source: chainRules["right-linear"] + cyclicEdges})
	resp, out := postQuery(t, ts.URL, `{"goal": "a(0,Y)", "trace": true}`)
	if resp.StatusCode != 200 {
		t.Fatalf("status %d (%v)", resp.StatusCode, out)
	}
	for _, p := range out["passes"].([]any) {
		orders, _ := p.(map[string]any)["orders"].([]any)
		for _, o := range orders {
			if fmt.Sprint(o.(map[string]any)["literals"]) == "[seed' p]" {
				return
			}
		}
	}
	t.Errorf("the seed rule never ran as [seed' p]: %v", out["passes"])
}

// TestServedChainPointDeepPin pins what a bound chain goal costs on the
// point_deep twin's 400-edge chain: the served program derives one fact
// per reached node, the answer state's, and no copy of it in the goal's
// shape, in one pass per node plus one, with 2·reached + 2 join probes,
// two per answer.
func TestServedChainPointDeepPin(t *testing.T) {
	const edges = 400
	var src strings.Builder
	src.WriteString("tc(X,Y) :- e(X,Z), tc(Z,Y).\ntc(X,Y) :- e(X,Y).\n")
	for i := 0; i < edges; i++ {
		fmt.Fprintf(&src, "e(n%d,n%d).\n", i, i+1)
	}
	_, ts := newTestServer(t, Config{Source: src.String()})
	for _, c := range []struct {
		goal    string
		reached int
	}{{"tc(n0,X)", edges}, {"tc(n200,X)", edges / 2}, {"tc(X,n400)", edges}, {"tc(X,n3)", 3}} {
		resp, out := postQuery(t, ts.URL, `{"goal": "`+c.goal+`"}`)
		if resp.StatusCode != 200 {
			t.Fatalf("%s: status %d (%v)", c.goal, resp.StatusCode, out)
		}
		stats := out["stats"].(map[string]any)
		got := func(k string) int { return int(stats[k].(float64)) }
		if n := int(out["count"].(float64)); n != c.reached {
			t.Errorf("%s: count %d, want %d", c.goal, n, c.reached)
		}
		if got("facts_derived") != c.reached || got("iterations") != c.reached+1 || got("join_probes") != 2*c.reached+2 {
			t.Errorf("%s: %d facts in %d passes with %d probes; want %d facts (the reached nodes) in %d passes with %d probes",
				c.goal, got("facts_derived"), got("iterations"), got("join_probes"), c.reached, c.reached+1, 2*c.reached+2)
		}
	}
}
