package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"os/exec"
	"strings"
	"testing"

	"existdlog/benchmark/gen"
)

// The smoke tests drive the real command, benchmark/run.sh, from the
// root of the checkout at 1/100 scale: tiny fact sets, a fraction of a
// second measured, one cold start.

func bench(t *testing.T, args ...string) (result, int) {
	t.Helper()
	cmd := exec.Command("bash", append([]string{"benchmark/run.sh"}, args...)...)
	cmd.Dir = ".."
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	code := 0
	if err != nil {
		exit, ok := err.(*exec.ExitError)
		if !ok {
			t.Fatalf("running benchmark/run.sh: %v", err)
		}
		code = exit.ExitCode()
	}
	lines := strings.Split(strings.TrimSpace(string(out)), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil && code == 0 {
		t.Fatalf("last line is not the result object: %v\n%s\n%s", err, out, stderr.String())
	}
	return res, code
}

func checkMetric(t *testing.T, res result, name string) {
	t.Helper()
	m, ok := res.Metrics[name]
	switch {
	case !ok:
		t.Errorf("metric %s missing", name)
	case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
		t.Errorf("metric %s is %v", name, m.Value)
	case m.Unit == "":
		t.Errorf("metric %s has no unit", name)
	}
}

type benchmarkJSON struct {
	Command   []string `json:"command"`
	Paths     []string `json:"paths"`
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func readBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var c benchmarkJSON
	if err := json.Unmarshal(data, &c); err != nil {
		t.Fatal(err)
	}
	return c
}

func TestSmokeEndToEnd(t *testing.T) {
	c := readBenchmarkJSON(t)
	res, code := bench(t, "--scale", "0.01")
	if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
		t.Fatalf("exit %d, correct %v, %d of %d ops failed", code, res.Correct, res.Failed, res.Attempted)
	}
	if len(c.Workloads) != len(gen.Names) || len(c.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json names %d workloads and %d end-to-end metrics, the benchmark has %d and %d",
			len(c.Workloads), len(c.EndToEnd), len(gen.Names), len(endToEnd))
	}
	for i, w := range c.Workloads {
		if w.Name != gen.Names[i] {
			t.Errorf("BENCHMARK.json workload %d is %s, the benchmark's is %s", i, w.Name, gen.Names[i])
		}
		for _, m := range c.EndToEnd {
			checkMetric(t, res, w.Name+"."+m.Name)
			if got := res.Metrics[w.Name+"."+m.Name]; got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s.%s = %v %s, want a positive number of %s", w.Name, m.Name, got.Value, got.Unit, m.Unit)
			}
		}
	}
}

// exact are the per-layer metrics that are counts made by the program
// over a fixed set of ops: two traced runs of one seed must agree on
// them to the last digit.
var exact = []string{
	"optimize.rules_in", "optimize.rules_out", "optimize.arity_out", "deletion.rules_deleted",
	"engine.passes_per_op", "engine.facts_per_op", "engine.derivations_per_op", "engine.dup_ratio",
	"engine.probes_per_answer", "engine.rules_retired_per_op", "engine.facts_opt_over_raw",
	"server.cache_hit_ratio", "server.reevals_per_mutation",
	"wal.bytes_per_mutation", "wal.syncs_per_mutation", "wal.checkpoints",
}

func TestSmokeTraced(t *testing.T) {
	c := readBenchmarkJSON(t)
	for _, name := range []string{"mixed_rw", "exists_cut"} {
		args := []string{"--workload", name, "--seed", "2", "--trace", "1", "--scale", "0.01"}
		first, code := bench(t, args...)
		if code != 0 || !first.Correct || first.Failed != 0 {
			t.Fatalf("%s: exit %d, correct %v, %d of %d ops failed", name, code, first.Correct, first.Failed, first.Attempted)
		}
		if len(first.Metrics) != len(c.PerLayer) {
			t.Errorf("%s: the traced run printed %d metrics, BENCHMARK.json names %d", name, len(first.Metrics), len(c.PerLayer))
		}
		for _, m := range c.PerLayer {
			checkMetric(t, first, m.Name)
			if got := first.Metrics[m.Name].Unit; got != m.Unit {
				t.Errorf("%s: %s is in %s, BENCHMARK.json says %s", name, m.Name, got, m.Unit)
			}
		}
		second, _ := bench(t, args...)
		for _, m := range exact {
			if a, b := first.Metrics[m].Value, second.Metrics[m].Value; a != b {
				t.Errorf("%s: exact counter %s was %v, then %v", name, m, a, b)
			}
		}
		if _, err := os.Stat("../.bench_build/spans/" + name + "-seed2.json"); err != nil {
			t.Errorf("%s: no span file: %v", name, err)
		}
	}
}

func TestWrongOracleEntryFailsTheRun(t *testing.T) {
	res, code := bench(t, "--workload", "point_deep", "--scale", "0.01", "--corrupt-oracle")
	if code == 0 || res.Correct || res.Failed == 0 {
		t.Errorf("with one oracle entry made wrong: exit %d, correct %v, %d ops failed; want a non-zero exit", code, res.Correct, res.Failed)
	}
}

// Part 1 must stay buildable whatever happens to the module under test:
// nothing of it but this directory and ./gen may be among its
// dependencies.
func TestPartOneImportsNothingOfTheModule(t *testing.T) {
	out, err := exec.Command("go", "list", "-deps", ".").Output()
	if err != nil {
		t.Fatal(err)
	}
	for _, dep := range strings.Fields(string(out)) {
		if strings.HasPrefix(dep, "existdlog") && dep != "existdlog/benchmark" && dep != "existdlog/benchmark/gen" {
			t.Errorf("Part 1 depends on %s", dep)
		}
	}
}
