package main

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// Golden byte-match tests for the observability surfaces: the optimizer
// EXPLAIN report (`existdlog explain file.dl`) and an evaluation with the
// report and metrics attached (`existdlog run -explain -trace file.dl`)
// must be byte-stable across runs and changes. Regenerate after an
// intentional output change with:
//
//	go test ./cmd/existdlog -run Golden -update
var update = flag.Bool("update", false, "rewrite the golden files under testdata/golden")

// goldenCompare diffs got against the named golden file, rewriting it
// under -update.
func goldenCompare(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run with -update to create): %v", err)
	}
	if got != string(want) {
		t.Errorf("output differs from %s\n-- got --\n%s\n-- want --\n%s", path, got, want)
	}
}

// goldenPrograms lists the testdata programs the golden layer covers.
func goldenPrograms(t *testing.T) []string {
	t.Helper()
	files, err := filepath.Glob(filepath.Join("testdata", "*.dl"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no testdata programs: %v", err)
	}
	return files
}

func TestGoldenExplain(t *testing.T) {
	for _, file := range goldenPrograms(t) {
		name := strings.TrimSuffix(filepath.Base(file), ".dl")
		t.Run(name, func(t *testing.T) {
			out := capture(t, func() error { return cmdExplain([]string{file}) })
			goldenCompare(t, name+".explain.golden", out)
		})
	}
}

func TestGoldenExplainJSON(t *testing.T) {
	// One representative program keeps the JSON fixture small; the shape is
	// the same for all inputs.
	out := capture(t, func() error { return cmdExplain([]string{"-json", "testdata/example1.dl"}) })
	goldenCompare(t, "example1.explain.json.golden", out)
}

func TestGoldenRunExplainTrace(t *testing.T) {
	for _, file := range goldenPrograms(t) {
		name := strings.TrimSuffix(filepath.Base(file), ".dl")
		t.Run(name, func(t *testing.T) {
			out := capture(t, func() error { return cmdRun([]string{"-explain", "-trace", file}) })
			goldenCompare(t, name+".run-explain.golden", out)
		})
	}
}

// TestGoldenExplainPlan pins the join-planner EXPLAIN section: the
// startup-pass order per rule with the live EDB cardinalities that
// justified it. Cardinalities of committed fixtures are fixed, so the
// section is byte-stable.
func TestGoldenExplainPlan(t *testing.T) {
	for _, file := range goldenPrograms(t) {
		name := strings.TrimSuffix(filepath.Base(file), ".dl")
		t.Run(name, func(t *testing.T) {
			out := capture(t, func() error { return cmdExplain([]string{"-plan", file}) })
			goldenCompare(t, name+".explain-plan.golden", out)
		})
	}
}

func TestGoldenWhy(t *testing.T) {
	out := capture(t, func() error { return cmdWhy([]string{"testdata/example1.dl", "a(1,3)"}) })
	goldenCompare(t, "example1.why.golden", out)
}
