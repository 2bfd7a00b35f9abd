package gen

import (
	"reflect"
	"testing"
)

func TestSameSeedSameInputs(t *testing.T) {
	for _, name := range Names {
		a, err := Build(name, 7, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		b, _ := Build(name, 7, 0.1)
		c, _ := Build(name, 8, 0.1)
		if a.Digest != b.Digest || a.Source != b.Source {
			t.Errorf("%s: the same seed gave different inputs", name)
		}
		if a.Digest == c.Digest {
			t.Errorf("%s: seeds 7 and 8 gave the same digest %016x", name, a.Digest)
		}
		if a.Name != c.Name || len(a.Setup) != len(c.Setup) {
			t.Errorf("%s: name or pool size depends on the seed", name)
		}
	}
}

func TestOpStreamIsAFunctionOfTheIndex(t *testing.T) {
	for _, name := range Names {
		w, err := Build(name, 3, 0.1)
		if err != nil {
			t.Fatal(err)
		}
		later := w.Op(41)
		w.Op(5)
		if !reflect.DeepEqual(w.Op(41), later) {
			t.Errorf("%s: op 41 changed after asking for op 5", name)
		}
	}
}

// At full scale every seed's closure_wide graph must cost the same.
func TestClosureWideOnTarget(t *testing.T) {
	for seed := uint64(1); seed <= 3; seed++ {
		w, err := Build("closure_wide", seed, 1)
		if err != nil {
			t.Fatal(err)
		}
		if rows := len(w.Setup[0].Requests[0].Want); rows < 29700 || rows > 30300 {
			t.Errorf("seed %d: the oracle has %d rows, generator promised 30000 within 1%%", seed, rows)
		}
	}
}

// mixed_rw's expected answers are built by construction (the base column
// plus the new node); check the construction against the oracle once.
func TestMixedRWExpectationsMatchOracle(t *testing.T) {
	w, err := Build("mixed_rw", 5, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	txn := w.Op(0).Requests
	with := *w.Program
	with.Facts = append(append([]Atom(nil), w.Program.Facts...), MustAtom(txn[0].Fact))
	goal := MustAtom(txn[1].Goal)
	if got := Answers(Evaluate(&with), goal); !SameRows(got, txn[1].Want) {
		t.Errorf("after %s the oracle answers %s with %d rows, the op expects %d", txn[0].Fact, goal, len(got), len(txn[1].Want))
	}
	if got := Answers(Evaluate(w.Program), goal); !SameRows(got, txn[3].Want) {
		t.Errorf("after the retraction the oracle has %d rows, the op expects %d", len(got), len(txn[3].Want))
	}
	with.Facts = with.Facts[:len(w.Program.Facts)]
	for _, d := range w.Durable {
		with.Facts = append(with.Facts, MustAtom(d.Fact))
	}
	if got := Answers(Evaluate(&with), goal); !SameRows(got, w.AfterRestart.Want) {
		t.Errorf("with the durable facts the oracle has %d rows, the restart check expects %d", len(got), len(w.AfterRestart.Want))
	}
}

// Every compile_cold goal shape must have at least one constant with a
// non-empty answer, or the workload would only ever check empty sets;
// and no measured op may repeat a goal, or it would hit the cache.
func TestCompileColdShapes(t *testing.T) {
	w, err := Build("compile_cold", 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, op := range w.Setup {
		r := op.Requests[0]
		if len(r.Want) == 0 {
			t.Errorf("set-up goal %s has an empty answer", r.Goal)
		}
		seen[r.Goal] = true
	}
	nonEmpty := 0
	for i := 0; i < 5000; i++ {
		r := w.Op(i).Requests[0]
		if seen[r.Goal] {
			t.Fatalf("op %d repeats goal %s", i, r.Goal)
		}
		seen[r.Goal] = true
		if len(r.Want) > 0 {
			nonEmpty++
		}
	}
	if nonEmpty < 20 {
		t.Errorf("only %d of 5000 ops have a non-empty answer", nonEmpty)
	}
	if len(w.Program.Rules) != 21 || len(w.Program.Facts) >= 300 {
		t.Errorf("rulebook has %d rules over %d facts, want 21 over fewer than 300", len(w.Program.Rules), len(w.Program.Facts))
	}
}
