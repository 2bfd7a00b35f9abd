package main

import (
	"context"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// divergentSrc counts forever through the succ builtin; only a timeout or
// an interrupt can end its evaluation. It lives in a temp dir, NOT in
// testdata/, which TestCmdRunOptimizedMatchesNoopt globs exhaustively.
const divergentSrc = `
count(X) :- zero(X).
count(Y) :- count(X), succ(X,Y).
zero(0).
?- count(X).
`

func writeTempProgram(t *testing.T, src string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "prog.dl")
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCmdRunTimeoutPrintsPartial: run -timeout on a divergent program must
// exit 0 with the partial answers and the partial-result notice before the
// stats line.
func TestCmdRunTimeoutPrintsPartial(t *testing.T) {
	path := writeTempProgram(t, divergentSrc)
	start := time.Now()
	out := capture(t, func() error {
		return cmdRun([]string{"-noopt", "-timeout", "50ms", "-max", "5", path})
	})
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("run -timeout 50ms took %v", elapsed)
	}
	if !strings.Contains(out, "%% partial result (deadline exceeded)") {
		t.Fatalf("missing partial-result notice:\n%s", out)
	}
	if !strings.Contains(out, "count(0)") {
		t.Fatalf("partial output lacks the first derived answer:\n%s", out)
	}
	if !strings.Contains(out, "answers") {
		t.Fatalf("stats line missing:\n%s", out)
	}
	notice := strings.Index(out, "%% partial result")
	stats := strings.LastIndex(out, "% ")
	if notice > stats {
		t.Fatalf("partial notice should precede the stats line:\n%s", out)
	}
}

// TestCmdRunTimeoutUnusedIsHarmless: a generous -timeout on a terminating
// program changes nothing.
func TestCmdRunTimeoutUnusedIsHarmless(t *testing.T) {
	plain := capture(t, func() error { return cmdRun([]string{"testdata/example1.dl"}) })
	timed := capture(t, func() error { return cmdRun([]string{"-timeout", "1m", "testdata/example1.dl"}) })
	if plain != timed {
		t.Fatalf("-timeout 1m changed the output:\nplain:\n%s\ntimed:\n%s", plain, timed)
	}
}

// TestReplInterruptCancelsQuery drives a replSession the way the SIGINT
// handler does: a divergent query is started, Interrupt is fired
// mid-flight, and the session must print the partial result with the
// interrupted notice — and keep accepting input (the session survives).
func TestReplInterruptCancelsQuery(t *testing.T) {
	var out lockedBuffer
	sess := &replSession{out: &out, optimize: false}
	for _, line := range []string{
		"count(X) :- zero(X).",
		"count(Y) :- count(X), succ(X,Y).",
		"zero(0).",
	} {
		if err := sess.handle(line); err != nil {
			t.Fatalf("handle(%q): %v", line, err)
		}
	}

	done := make(chan error, 1)
	go func() { done <- sess.handle("?- count(X).") }()

	// Interrupt once the query is actually in flight.
	deadline := time.Now().Add(2 * time.Second)
	for {
		if sess.Interrupt() {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("query never registered a cancel func")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("interrupted query returned error: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("query did not return after Interrupt")
	}
	if got := out.String(); !strings.Contains(got, "interrupted — partial result") {
		t.Fatalf("missing interrupted notice:\n%s", got)
	}

	// No query in flight: Interrupt must report false (the repl's signal
	// handler then arms the exit path instead of swallowing the Ctrl-C).
	if sess.Interrupt() {
		t.Fatal("Interrupt claimed to cancel with no query running")
	}

	// The session still answers queries afterwards (the divergent rules
	// are cleared first — any query would re-run the whole program).
	out.Reset()
	if err := sess.handle(":clear"); err != nil {
		t.Fatal(err)
	}
	if err := sess.handle("zero(0)."); err != nil {
		t.Fatal(err)
	}
	if err := sess.handle("?- zero(X)."); err != nil {
		t.Fatalf("post-interrupt query: %v", err)
	}
	if got := out.String(); !strings.Contains(got, "zero(0)") {
		t.Fatalf("session did not survive the interrupt:\n%s", got)
	}
}

// TestReplInterruptCancelsServedMutation: a :add against a -server that
// never answers must be interruptible like a query — Interrupt reports
// true and the mutation returns promptly with a cancellation error,
// instead of blocking for the client's timeout.
func TestReplInterruptCancelsServedMutation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		// Wedged: answers nothing until the caller gives up. The body is
		// read first, so the server notices the closed connection and
		// ends the request context.
		io.Copy(io.Discard, r.Body)
		<-r.Context().Done()
	}))
	defer ts.Close()
	var out lockedBuffer
	sess := &replSession{out: &out, server: ts.URL}

	done := make(chan error, 1)
	go func() { done <- sess.handle(":add q(3,4).") }()
	deadline := time.Now().Add(2 * time.Second)
	for !sess.Interrupt() {
		if time.Now().After(deadline) {
			t.Fatal("served mutation never registered a cancel func")
		}
		time.Sleep(time.Millisecond)
	}
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("interrupted mutation returned %v, want a cancellation error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("served mutation did not return after Interrupt")
	}
	if sess.Interrupt() {
		t.Fatal("Interrupt claimed to cancel with no mutation in flight")
	}
}

// lockedBuffer is a strings.Builder safe for the cross-goroutine writes
// the interrupt test performs.
type lockedBuffer struct {
	mu sync.Mutex
	sb strings.Builder
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.sb.String()
}

func (b *lockedBuffer) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.sb.Reset()
}
