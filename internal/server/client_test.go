package server

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestClientNoRetryWithoutPolicy: the client has no retry policy, so a
// 503 is one attempt, passed through to the caller as it is.
func TestClientNoRetryWithoutPolicy(t *testing.T) {
	var hits atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		hits.Add(1)
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "overloaded"})
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	res, err := c.Query(context.Background(), "a(X,Y)", 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusServiceUnavailable {
		t.Fatalf("status = %d, want 503 passed through", res.Status)
	}
	if got := hits.Load(); got != 1 {
		t.Errorf("server hits = %d, want exactly 1", got)
	}
}

// TestClientDrainsBodiesForReuse is the HTTP-hygiene satellite: every
// response body — error paths included — must be drained and closed so
// sequential calls reuse one connection instead of dialing fresh ones.
func TestClientDrainsBodiesForReuse(t *testing.T) {
	conns := make(map[string]bool)
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		conns[r.RemoteAddr] = true
		mu.Unlock()
		// A non-200 with a body: the old client left these unread under
		// some paths, poisoning the connection for reuse.
		writeJSON(w, http.StatusBadRequest, errorResponse{Error: "bad goal"})
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	for i := 0; i < 8; i++ {
		if _, err := c.Query(context.Background(), "nope(", 0); err != nil {
			t.Fatal(err)
		}
	}
	mu.Lock()
	defer mu.Unlock()
	if len(conns) != 1 {
		t.Errorf("sequential error responses used %d connections, want 1 (bodies drained, conn reused)", len(conns))
	}
}

// discardWriter swallows a handler's response: the mutation middleware
// below uses it to let a write APPLY while its acknowledgment is lost.
type discardWriter struct{ h http.Header }

func (d discardWriter) Header() http.Header         { return d.h }
func (d discardWriter) Write(p []byte) (int, error) { return len(p), nil }
func (d discardWriter) WriteHeader(int)             {}

// TestClientIdempotentRetryAppliesOnce is the ack-lost write drill: the
// first /update fully applies server-side, but the connection dies
// before the caller sees the ack. The retry (postRetrying) carries the
// same Idempotency-Key, so the store's dedup window acknowledges the
// original application instead of applying again — observable as the
// retried call acking seq 1 with exactly one version installed.
func TestClientIdempotentRetryAppliesOnce(t *testing.T) {
	dir := t.TempDir()
	s, err := New(Config{Source: chainSrc, WALDir: filepath.Join(dir)})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	var dropped atomic.Bool
	inner := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/update" && dropped.CompareAndSwap(false, true) {
			inner.ServeHTTP(discardWriter{h: http.Header{}}, r) // the write lands...
			panic(http.ErrAbortHandler)                         // ...the ack does not
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	res, err := mutateRetrying(context.Background(), c, "update", []string{"p(9,10)"}, 2*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if res.Status != http.StatusOK || res.Seq != 1 {
		t.Fatalf("retried mutation = %+v, want status 200 seq 1 (the original application's ack)", res)
	}
	if got := s.Store().Current().Seq; got != 1 {
		t.Errorf("store seq = %d, want 1 — the retry was applied a second time", got)
	}
	if got := len(s.Store().Current().EDB.Facts("p")); got != 4 {
		t.Errorf("p has %d facts, want 4 (3 base + 1 mutation)", got)
	}

	// A genuinely new mutation still advances the store.
	res, err = c.Mutate(context.Background(), "update", []string{"p(10,11)"}, 2*time.Second)
	if err != nil || res.Seq != 2 {
		t.Fatalf("follow-up mutation = %+v err=%v, want seq 2", res, err)
	}
}

// TestClientMutationIdempotencyKeyStableAcrossRetries checks the key
// itself: a retried mutation sends the same Idempotency-Key on every
// attempt, and each Mutate call sends a fresh one.
func TestClientMutationIdempotencyKeyStableAcrossRetries(t *testing.T) {
	var mu sync.Mutex
	var keys []string
	var hits int
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		keys = append(keys, r.Header.Get("Idempotency-Key"))
		hits++
		n := hits
		mu.Unlock()
		if n == 1 {
			writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "try again"})
			return
		}
		writeJSON(w, http.StatusOK, mutationResponse{Request: "m", Seq: uint64(n)})
	}))
	defer ts.Close()

	c := NewClient(ts.URL)
	if _, err := mutateRetrying(context.Background(), c, "update", []string{"p(1,9)"}, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Mutate(context.Background(), "update", []string{"p(2,9)"}, 0); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(keys) != 3 {
		t.Fatalf("attempts = %d, want 3 (retry then fresh call)", len(keys))
	}
	if keys[0] == "" || keys[0] != keys[1] {
		t.Errorf("retry keys %q vs %q, want identical and non-empty", keys[0], keys[1])
	}
	if keys[2] == "" || keys[2] == keys[0] {
		t.Errorf("Mutate sent idempotency key %q, want a fresh non-empty one (first call's was %q)", keys[2], keys[0])
	}
}

// TestIdempotencyDedupWindow drives the server-side half of exactly-once
// over plain HTTP, with explicit Idempotency-Key headers: a repeated key
// acks the first application's seq without advancing the store, a key
// stays spent after the fact it added is retracted (so a late retry does
// not re-add it), and with a WAL and no checkpoint in between both still
// hold after Close and a reopen.
func TestIdempotencyDedupWindow(t *testing.T) {
	dir := t.TempDir()
	post := func(t *testing.T, url, path, key, facts string) uint64 {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, url+path, strings.NewReader(`{"facts": [`+facts+`]}`))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out mutationResponse
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil || resp.StatusCode != http.StatusOK {
			t.Fatalf("%s key %s: status %d, decode err %v", path, key, resp.StatusCode, err)
		}
		return out.Seq
	}
	check := func(t *testing.T, s *Server, wantSeq uint64, wantP int) {
		t.Helper()
		v := s.Store().Current()
		if v.Seq != wantSeq || len(v.EDB.Facts("p")) != wantP {
			t.Fatalf("store at seq %d with %d p facts, want seq %d with %d", v.Seq, len(v.EDB.Facts("p")), wantSeq, wantP)
		}
	}

	s, ts := newTestServer(t, Config{Source: chainSrc, WALDir: dir})
	if seq := post(t, ts.URL, "/update", "k1", `"p(4,5)"`); seq != 1 {
		t.Fatalf("first update acked seq %d, want 1", seq)
	}
	if seq := post(t, ts.URL, "/update", "k1", `"p(4,5)"`); seq != 1 {
		t.Fatalf("repeated k1 acked seq %d, want the first application's 1", seq)
	}
	check(t, s, 1, 4)
	if seq := post(t, ts.URL, "/retract", "k2", `"p(4,5)"`); seq != 2 {
		t.Fatalf("retract acked seq %d, want 2", seq)
	}
	if seq := post(t, ts.URL, "/update", "k1", `"p(4,5)"`); seq != 1 {
		t.Fatalf("k1 after the retract acked seq %d, want 1", seq)
	}
	check(t, s, 2, 3) // the late k1 did not re-add p(4,5)

	ts.Close()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, ts2 := newTestServer(t, Config{Source: chainSrc, WALDir: dir})
	check(t, s2, 2, 3)
	if seq := post(t, ts2.URL, "/update", "k1", `"p(4,5)"`); seq != 1 {
		t.Fatalf("k1 after reopen acked seq %d, want 1", seq)
	}
	if seq := post(t, ts2.URL, "/retract", "k2", `"p(4,5)"`); seq != 2 {
		t.Fatalf("k2 after reopen acked seq %d, want 2", seq)
	}
	check(t, s2, 2, 3)
}
