package main

import (
	"bytes"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"existdlog/internal/server"
)

// capture runs f with os.Stdout redirected and returns what it printed.
func capture(t *testing.T, f func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	done := make(chan string)
	go func() {
		var buf bytes.Buffer
		io.Copy(&buf, r)
		done <- buf.String()
	}()
	ferr := f()
	w.Close()
	os.Stdout = old
	out := <-done
	if ferr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", ferr, out)
	}
	return out
}

func TestCmdRun(t *testing.T) {
	out := capture(t, func() error { return cmdRun([]string{"testdata/example1.dl"}) })
	for _, want := range []string{"query@n(1)", "query@n(2)", "query@n(3)", "answers"} {
		if !strings.Contains(out, want) {
			t.Errorf("run output missing %q:\n%s", want, out)
		}
	}
	if strings.Contains(out, "query@n(4)") {
		t.Errorf("node 4 has no outgoing edge:\n%s", out)
	}
}

func TestCmdRunNoopt(t *testing.T) {
	out := capture(t, func() error { return cmdRun([]string{"-noopt", "testdata/example1.dl"}) })
	if !strings.Contains(out, "query(1)") {
		t.Errorf("unoptimized run output:\n%s", out)
	}
}

func TestCmdRunEmptyAnswer(t *testing.T) {
	out := capture(t, func() error { return cmdRun([]string{"testdata/empty.dl"}) })
	if !strings.Contains(out, "proved empty at compile time") {
		t.Errorf("empty.dl output:\n%s", out)
	}
}

func TestCmdOptimize(t *testing.T) {
	out := capture(t, func() error { return cmdOptimize([]string{"testdata/example1.dl"}) })
	for _, want := range []string{"== input ==", "after adorn", "after push-projections", "a@nd(X)", "deletions"} {
		if !strings.Contains(out, want) {
			t.Errorf("optimize output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdAdorn(t *testing.T) {
	out := capture(t, func() error { return cmdAdorn([]string{"testdata/example1.dl"}) })
	if !strings.Contains(out, "a@nd(X,Y)") {
		t.Errorf("adorn output:\n%s", out)
	}
}

func TestCmdExplain(t *testing.T) {
	out := capture(t, func() error { return cmdExplain([]string{"testdata/example1.dl", "a(1,3)"}) })
	if !strings.Contains(out, "a(1,3)") || !strings.Contains(out, "[base fact]") {
		t.Errorf("explain output:\n%s", out)
	}
	out = capture(t, func() error { return cmdExplain([]string{"testdata/example1.dl", "a(3,1)"}) })
	if !strings.Contains(out, "not derivable") {
		t.Errorf("explain of underivable fact:\n%s", out)
	}
}

func TestCmdGrammar(t *testing.T) {
	out := capture(t, func() error { return cmdGrammar([]string{"testdata/chain.dl"}) })
	for _, want := range []string{"right-linear", "L(G)", "monadic program"} {
		if !strings.Contains(out, want) {
			t.Errorf("grammar output missing %q:\n%s", want, out)
		}
	}
}

func TestCmdBenchSingle(t *testing.T) {
	if testing.Short() {
		t.Skip("bench tables take seconds")
	}
	out := capture(t, func() error { return cmdBench([]string{"-only", "E4"}) })
	if !strings.Contains(out, "E4") || !strings.Contains(out, "speedups") {
		t.Errorf("bench output:\n%s", out)
	}
}

func TestCmdErrors(t *testing.T) {
	if err := cmdRun([]string{"testdata/missing.dl"}); err == nil {
		t.Error("missing file should error")
	}
	if err := cmdOptimize([]string{}); err == nil {
		t.Error("missing argument should error")
	}
	if err := cmdExplain([]string{"testdata/example1.dl", "a(X,3)"}); err == nil {
		t.Error("non-ground goal should error")
	}
}

func TestCmdEquiv(t *testing.T) {
	out := capture(t, func() error {
		return cmdEquiv([]string{"testdata/leftlinear.dl", "testdata/rightlinear.dl"})
	})
	if !strings.Contains(out, "uniform equivalence (decidable, Sagiv):      false") {
		t.Errorf("equiv output:\n%s", out)
	}
	if !strings.Contains(out, "uniform query equivalence") {
		t.Errorf("equiv output:\n%s", out)
	}
	out = capture(t, func() error {
		return cmdEquiv([]string{"testdata/rightlinear.dl", "testdata/rightlinear.dl"})
	})
	if !strings.Contains(out, "query equivalence (exact, regular fragment): true") {
		t.Errorf("self-equivalence output:\n%s", out)
	}
}

func TestCmdRunCSV(t *testing.T) {
	out := capture(t, func() error {
		return cmdRun([]string{"-rel", "e=testdata/edges.csv", "testdata/csvquery.dl"})
	})
	for _, want := range []string{"loaded 3 rows", "reach@n(n1)", "reach@n(n3)"} {
		if !strings.Contains(out, want) {
			t.Errorf("csv run missing %q:\n%s", want, out)
		}
	}
	if err := cmdRun([]string{"-rel", "broken", "testdata/csvquery.dl"}); err == nil {
		t.Error("malformed -rel should error")
	}
}

func TestReplSession(t *testing.T) {
	var out strings.Builder
	sess := &replSession{out: &out, optimize: true}
	script := []string{
		"a(X,Y) :- p(X,Z), a(Z,Y).",
		"a(X,Y) :- p(X,Y).",
		"p(1,2). p(2,3).",
		"?- a(1,X).",
		":rules",
		":facts",
		":optimize",
		"bogus line without dot",
		":nope",
	}
	for _, line := range script {
		if err := sess.handle(line); err != nil && !strings.Contains(err.Error(), "clauses end") &&
			!strings.Contains(err.Error(), "unknown command") {
			t.Fatalf("%q: %v", line, err)
		}
	}
	got := out.String()
	for _, want := range []string{"a@nn(1,2)", "a@nn(1,3)", "2 answers", "a(X,Y) :- p(X,Z), a(Z,Y)."} {
		if !strings.Contains(got, want) {
			t.Errorf("repl output missing %q:\n%s", want, got)
		}
	}
	if err := sess.handle(":quit"); err != errReplQuit {
		t.Errorf("quit returned %v", err)
	}
	// Streamed run with a reader.
	var out2 strings.Builder
	sess2 := &replSession{out: &out2, optimize: true}
	in := strings.NewReader("e(a,b).\nr(X,Y) :- e(X,Y).\n?- r(X,Y).\n:quit\n")
	if err := sess2.run(in); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out2.String(), "r@nn(a,b)") && !strings.Contains(out2.String(), "r(a,b)") {
		t.Errorf("streamed repl output:\n%s", out2.String())
	}
}

// TestCmdRunOptimizedMatchesNoopt is the end-to-end soundness check of
// the CLI: on every testdata program, `run` prints the same answer tuples
// as `run -noopt` once the adornment suffix is stripped (a@nn(1,2) is
// a(1,2)), an "answer proved empty" program has no -noopt answers, and two
// runs of either print byte-identical output.
func TestCmdRunOptimizedMatchesNoopt(t *testing.T) {
	files, err := filepath.Glob("testdata/*.dl")
	if err != nil || len(files) == 0 {
		t.Fatalf("globbing testdata: %v (%d files)", err, len(files))
	}
	// runTwice runs the program twice with args and returns the output,
	// failing unless the two outputs are byte-identical.
	runTwice := func(t *testing.T, args []string) string {
		t.Helper()
		first := capture(t, func() error { return cmdRun(args) })
		if again := capture(t, func() error { return cmdRun(args) }); again != first {
			t.Fatalf("run %v is not deterministic\nfirst:\n%s\nsecond:\n%s", args, first, again)
		}
		return first
	}
	for _, file := range files {
		name := filepath.Base(file)
		args := []string{"-max", "0"}
		if name == "csvquery.dl" {
			args = append(args, "-rel", "e=testdata/edges.csv")
		}
		t.Run(name, func(t *testing.T) {
			opt := runTwice(t, append(args, file))
			t.Run("noopt", func(t *testing.T) {
				noopt := runTwice(t, append(append([]string{"-noopt"}, args...), file))
				got, want := answerTuples(opt), answerTuples(noopt)
				if strings.Contains(opt, "answer proved empty") && len(want) != 0 {
					t.Fatalf("optimizer proved the answer empty, but -noopt found %v", want)
				}
				if !slices.Equal(got, want) {
					t.Fatalf("answers diverge\noptimized: %v\n-noopt:    %v", got, want)
				}
			})
		})
	}
}

// answerTuples extracts the answer lines of a run's output, adornment
// suffixes stripped and sorted: comment lines (%) and the "answer proved
// empty" line are not answers.
func answerTuples(out string) []string {
	var tuples []string
	for _, line := range strings.Split(out, "\n") {
		if line == "" || strings.HasPrefix(line, "%") || strings.HasPrefix(line, "answer proved empty") {
			continue
		}
		if pred, rest, ok := strings.Cut(line, "("); ok {
			pred, _, _ = strings.Cut(pred, "@")
			line = pred + "(" + rest
		}
		tuples = append(tuples, line)
	}
	slices.Sort(tuples)
	return tuples
}

func TestReplLoadFile(t *testing.T) {
	var out strings.Builder
	sess := &replSession{out: &out, optimize: true}
	if err := sess.loadFile("testdata/example1.dl"); err != nil {
		t.Fatal(err)
	}
	if err := sess.handle("?- query(X)."); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "3 answers") {
		t.Errorf("load+query output:\n%s", out.String())
	}
}

// TestReplPreparesLikeRun pipes boundchain.dl, then its goal and :stats,
// into the repl. The repl prepares goals as run does, so the bound chain
// goal is answered by the seeded Theorem 3.3 program: the same four answer
// lines as run, from 8 derived facts (the unseeded optimized program
// derives 33). The file's own "?- a(4,Y)." line runs before its facts are
// read and derives nothing, so the session total is the second query's.
func TestReplPreparesLikeRun(t *testing.T) {
	src, err := os.ReadFile("testdata/boundchain.dl")
	if err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	sess := &replSession{out: &out, optimize: true}
	if err := sess.run(strings.NewReader(string(src) + "?- a(4,Y).\n:stats\n")); err != nil {
		t.Fatal(err)
	}
	got := out.String()
	var answers []string
	for _, line := range strings.Split(capture(t, func() error { return cmdRun([]string{"testdata/boundchain.dl"}) }), "\n") {
		if line != "" && !strings.HasPrefix(line, "%") {
			answers = append(answers, line)
		}
	}
	if len(answers) != 4 {
		t.Fatalf("run printed %d answers, want 4: %v", len(answers), answers)
	}
	if want := "> " + strings.Join(answers, "\n") + "\n% 4 answers, 4 facts derived"; !strings.Contains(got, want) {
		t.Errorf("repl output missing run's answers from 4 facts (%q):\n%s", want, got)
	}
	if !strings.Contains(got, "facts derived: 4;") {
		t.Errorf(":stats does not report 4 facts derived:\n%s", got)
	}
}

// TestReplMutations drives :add and :retract both locally (editing the
// accumulated program) and connected to a served instance with -server
// semantics (posting to /update and /retract).
func TestReplMutations(t *testing.T) {
	// Local: mutations edit the session program in place.
	var out strings.Builder
	sess := &replSession{out: &out, optimize: true}
	for _, line := range []string{
		"a(X,Y) :- p(X,Y).",
		"a(X,Y) :- p(X,Z), a(Z,Y).",
		"p(1,2).",
		":add p(2,3)",
		"?- a(1,X).",
		":retract p(2,3).",
		"?- a(1,X).",
	} {
		if err := sess.handle(line); err != nil {
			t.Fatalf("%q: %v", line, err)
		}
	}
	got := out.String()
	if !strings.Contains(got, "2 answers") || !strings.Contains(got, "1 answers") {
		t.Errorf("local :add/:retract did not change query results:\n%s", got)
	}
	if err := sess.handle(":retract p(9,9)."); err == nil || !strings.Contains(err.Error(), "not present") {
		t.Errorf("retracting an absent fact: err=%v", err)
	}
	if err := sess.handle(":add a(X,Y) :- p(X,Y)."); err == nil || !strings.Contains(err.Error(), "ground fact") {
		t.Errorf("adding a rule via :add: err=%v", err)
	}

	// Served: the same commands post to a live instance's mutation
	// endpoints and print the acknowledged sequence numbers.
	srv, err := server.New(server.Config{
		Source: "a(X,Y) :- p(X,Y).\na(X,Y) :- p(X,Z), a(Z,Y).\np(1,2).\n?- a(1,X).",
		Logger: slog.New(slog.NewTextHandler(io.Discard, nil)),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ts := httptest.NewServer(srv.Handler())
	defer ts.Close()

	var out2 strings.Builder
	sess2 := &replSession{out: &out2, optimize: true, server: ts.URL}
	if err := sess2.handle(":add p(2,3)"); err != nil {
		t.Fatal(err)
	}
	if err := sess2.handle(":retract p(1,2)."); err != nil {
		t.Fatal(err)
	}
	got2 := out2.String()
	if !strings.Contains(got2, "update acknowledged at seq 1") ||
		!strings.Contains(got2, "retract acknowledged at seq 2") {
		t.Errorf("served :add/:retract acks:\n%s", got2)
	}
	if err := sess2.handle(":add a(5,6)"); err == nil || !strings.Contains(err.Error(), "400") {
		t.Errorf("adding a derived fact against the server: err=%v", err)
	}
	// The served program now has p(2,3) only: a(2,3) is the single answer.
	resp, err := http.Post(ts.URL+"/query", "application/json", strings.NewReader(`{"goal":"?- a(X,Y)."}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	if !strings.Contains(string(body), `"count": 1`) || !strings.Contains(string(body), `"2"`) || !strings.Contains(string(body), `"3"`) {
		t.Errorf("served query after mutations: %s", body)
	}
}
