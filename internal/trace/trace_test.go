package trace

import (
	"bytes"
	"strings"
	"testing"
)

func TestTotalsAndRetired(t *testing.T) {
	c := NewCollector([]string{"a.", "b."})
	c.Emit(0)
	c.Emit(0)
	c.Fact(0)
	c.Duplicate(0)
	c.Emit(1)
	c.Fact(1)
	c.Pass(PassStats{Pass: 1, Facts: 2})
	c.Cut(1, 1)
	m := c.Metrics()
	emitted, facts, dup, probes := m.Totals()
	if emitted != 3 || facts != 2 || dup != 1 || probes != 0 {
		t.Fatalf("Totals = %d %d %d %d", emitted, facts, dup, probes)
	}
	if m.Retired() != 1 {
		t.Fatalf("Retired = %d", m.Retired())
	}
	// A cut at a recorded pass lands in that pass's Cuts list too.
	if len(m.Passes) != 1 || len(m.Passes[0].Cuts) != 1 || m.Passes[0].Cuts[0] != 1 {
		t.Fatalf("pass cuts wrong: %+v", m.Passes)
	}
}

func TestCutAtUnrecordedPassOnlySetsCutPass(t *testing.T) {
	c := NewCollector([]string{"a."})
	c.Pass(PassStats{Pass: 1})
	c.Cut(0, 2) // no pass record for pass 2 yet
	m := c.Metrics()
	if m.Rules[0].CutPass != 2 {
		t.Fatalf("CutPass = %d", m.Rules[0].CutPass)
	}
	if len(m.Passes[0].Cuts) != 0 {
		t.Fatalf("cut leaked into pass 1: %+v", m.Passes[0])
	}
}

func TestMetricsJSONDeterministic(t *testing.T) {
	build := func() []byte {
		c := NewCollector([]string{"a(X) :- b(X)."})
		c.Emit(0)
		c.Fact(0)
		c.Pass(PassStats{Pass: 1, Facts: 1,
			Deltas: []DeltaSize{{Predicate: "b", Size: 2}}})
		b, err := c.Metrics().JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	if !bytes.Equal(build(), build()) {
		t.Fatal("Metrics.JSON is not deterministic")
	}
}

func TestMetricsFormatTables(t *testing.T) {
	c := NewCollector([]string{"a(X) :- b(X)."})
	c.Emit(0)
	c.Fact(0)
	c.Cut(0, 1)
	c.Pass(PassStats{Pass: 1, Stratum: 0, Versions: 1, Facts: 1})
	var sb strings.Builder
	c.Metrics().Format(&sb)
	out := sb.String()
	for _, want := range []string{"per-rule metrics", "per-pass metrics", "a(X) :- b(X).", "p1"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format output missing %q:\n%s", want, out)
		}
	}
}

func TestExplainJSONAndFormat(t *testing.T) {
	e := &Explain{
		Input: "q(X) :- a(X,Y).\n?- q(X).\n",
		Stages: []Stage{{
			Name: "push-projections", RulesBefore: 2, RulesAfter: 2,
			Projections: []Projection{{Predicate: "a@nd", Before: 2, After: 1, Dropped: []int{2}}},
			Program:     "q(X) :- a@nd(X).\n?- q(X).\n",
		}, {
			Name: "delete-rules", RulesBefore: 2, RulesAfter: 1,
			Deletions: []Deletion{{Rule: "a@nd(X) :- p(X,Z), a@nd(Z).", Test: "subsumption", Reason: "subsumed"}},
			Program:   "q(X) :- a@nd(X).\n?- q(X).\n",
		}},
	}
	var sb strings.Builder
	e.Format(&sb)
	out := sb.String()
	for _, want := range []string{
		"stage 1: push-projections",
		"projection: a@nd arity 2 -> 1 (dropped position 2)",
		"deleted [subsumption]",
		"== optimized program ==",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("Explain.Format missing %q:\n%s", want, out)
		}
	}
	b1, err := e.JSON()
	if err != nil {
		t.Fatal(err)
	}
	b2, _ := e.JSON()
	if !bytes.Equal(b1, b2) {
		t.Fatal("Explain.JSON is not deterministic")
	}
}
