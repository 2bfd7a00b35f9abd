//go:build failpoint

// Chaos and degraded-mode suite (CI: go test -race -tags failpoint
// -run 'Chaos|Overload|Degraded' ./internal/...). The failpoint sites
// driven here: "wal/sync" and "wal/append" (disk faults mid-group-
// commit), "server/slow" (handler latency), plus an HTTP middleware
// that kills connections before and after the handler runs (request
// lost vs. ack lost).
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"existdlog"
	"existdlog/internal/failpoint"
	"existdlog/internal/leakcheck"
	"existdlog/internal/obs"
	"existdlog/internal/wal"
)

var errDisk = errors.New("injected disk failure (EIO)")

// waitRecovered polls until the store has left degraded mode.
func waitRecovered(t *testing.T, st *Store) {
	t.Helper()
	waitFor(t, "store to leave degraded mode", func() bool {
		deg, _ := st.Degraded()
		return !deg
	})
}

// TestDegradedModeEntersAndRecovers: a WAL sync failure flips the
// store read-only — the failed write is not applied and not acked as
// success, reads keep serving the last installed version, further
// writes fail fast — and a later successful probe write re-enables
// mutations without a restart.
func TestDegradedModeEntersAndRecovers(t *testing.T) {
	defer failpoint.Reset()
	reg := obs.NewRegistry()
	st := newTestStore(t, chainSrc, StoreConfig{
		WALDir:     t.TempDir(),
		Registry:   reg,
		ProbeEvery: 10 * time.Millisecond,
	})

	// Fires on the group commit and the first two probes, then heals.
	failpoint.Enable("wal/sync", failpoint.Config{Act: failpoint.ActError, Err: errDisk, Count: 3})

	_, err := st.Mutate(context.Background(), Mutation{Op: wal.OpUpdate, Facts: []wal.Fact{fact("p", "4", "5")}})
	if !errors.Is(err, ErrDegraded) {
		t.Fatalf("mutation over failing WAL: err = %v, want ErrDegraded", err)
	}
	if deg, cause := st.Degraded(); !deg || !strings.Contains(cause, "injected disk failure") {
		t.Fatalf("Degraded() = %v, %q; want degraded with the injected cause", deg, cause)
	}
	if got := st.Current().Seq; got != 0 {
		t.Fatalf("store seq = %d after failed commit, want 0 (no version installed)", got)
	}
	if got := reg.Snapshot().Degraded; got != 1 {
		t.Errorf("degraded gauge = %d, want 1", got)
	}
	// Fail fast while degraded: rejected before reaching the applier.
	if _, err := st.Mutate(context.Background(), Mutation{Op: wal.OpUpdate, Facts: []wal.Fact{fact("p", "5", "6")}}); !errors.Is(err, ErrDegraded) {
		t.Fatalf("mutation while degraded: err = %v, want fast ErrDegraded", err)
	}
	// Reads never stopped: the pinned version is intact.
	if got := len(st.Current().EDB.Facts("p")); got != 3 {
		t.Errorf("base facts = %d while degraded, want 3", got)
	}

	waitRecovered(t, st)
	if got := reg.Snapshot().Degraded; got != 0 {
		t.Errorf("degraded gauge after recovery = %d, want 0", got)
	}
	if seq := mustMutate(t, st, wal.OpUpdate, fact("p", "4", "5")); seq != 1 {
		t.Errorf("post-recovery mutation seq = %d, want 1", seq)
	}
}

// TestDegradedWALSyncAtomicity is the failure-atomicity satellite: an
// injected Sync error mid-group-commit must leave no version
// installed and no success ack — and after the store recovers, closes,
// and reopens, the failed write must not resurface from the log
// (the rollback physically removed its frames).
func TestDegradedWALSyncAtomicity(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	st := newTestStore(t, chainSrc, StoreConfig{WALDir: dir, ProbeEvery: 10 * time.Millisecond})

	if seq := mustMutate(t, st, wal.OpUpdate, fact("p", "4", "5")); seq != 1 {
		t.Fatalf("setup mutation seq = %d, want 1", seq)
	}

	failpoint.Enable("wal/sync", failpoint.Config{Act: failpoint.ActError, Err: errDisk, Count: 1})
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = st.Mutate(context.Background(),
				Mutation{Op: wal.OpUpdate, Facts: []wal.Fact{fact("p", "6", fmt.Sprint(7+i))}})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err == nil {
			t.Fatalf("mutation %d over failing WAL was acked as success", i)
		}
	}
	if got := st.Current().Seq; got != 1 {
		t.Fatalf("store seq = %d after failed group commit, want 1 (nothing installed)", got)
	}

	waitRecovered(t, st)
	st.Close()

	// Reopen from disk: the durable state is exactly the acked prefix.
	prog, db, err := existdlog.Parse(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := NewStore(prog, db, StoreConfig{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if got := st2.Current().Seq; got != 1 {
		t.Errorf("reopened seq = %d, want 1", got)
	}
	for _, row := range st2.Current().EDB.Facts("p") {
		if row[0] == "6" {
			t.Errorf("failed write p(6,%s) resurfaced from the log after reopen", row[1])
		}
	}
	if got := len(st2.Current().EDB.Facts("p")); got != 4 {
		t.Errorf("reopened p facts = %d, want 4 (3 base + the acked write)", got)
	}
}

// TestDegradedHTTPServesReadsRejectsWrites drives degraded mode over
// the wire: /query answers from the last installed version, /update
// gets 503 + Retry-After with the degraded reason counted, /readyz
// names the cause — and everything recovers once the disk heals.
func TestDegradedHTTPServesReadsRejectsWrites(t *testing.T) {
	defer failpoint.Reset()
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Source:     chainSrc,
		WALDir:     t.TempDir(),
		ProbeEvery: 10 * time.Millisecond,
		Registry:   reg,
		FlightSize: 64,
	})

	failpoint.Enable("wal/sync", failpoint.Config{Act: failpoint.ActError, Err: errDisk})

	// The write that trips degraded mode: 503, Retry-After, counted, and
	// the body names the request and trace ids for correlation.
	resp, err := http.Post(ts.URL+"/update", "application/json",
		strings.NewReader(`{"facts": ["p(4,5)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	trip := decodeBody(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("mutation over failing WAL: status = %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("degraded 503 has no Retry-After header")
	}
	tripReq, _ := trip["request"].(string)
	tripTrace, _ := trip["trace"].(string)
	if tripReq == "" || tripTrace == "" {
		t.Fatalf("degraded 503 body %v lacks request/trace correlation ids", trip)
	}

	// Later writes fail fast; their error text attributes the outage to
	// the triggering request, pointing at its flight-recorder entry.
	resp2b, err := http.Post(ts.URL+"/update", "application/json",
		strings.NewReader(`{"facts": ["p(5,6)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	fast := decodeBody(t, resp2b)
	resp2b.Body.Close()
	wantAttr := fmt.Sprintf("triggered by request %s trace %s", tripReq, tripTrace)
	if msg, _ := fast["error"].(string); !strings.Contains(msg, wantAttr) {
		t.Errorf("fail-fast 503 error %q does not name the triggering request (%s)", msg, wantAttr)
	}
	if s.FlightRecorder().Find(tripTrace) == nil {
		t.Error("the triggering request has no flight-recorder entry to point at")
	}

	// Reads serve the last installed version throughout.
	qresp, out := postQuery(t, ts.URL, `{"goal": "a(X,Y)"}`)
	if qresp.StatusCode != http.StatusOK || out["count"].(float64) != 6 {
		t.Fatalf("query while degraded: status %d count %v, want 200/6", qresp.StatusCode, out["count"])
	}

	// Readiness carries the reason.
	rresp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	body := make([]byte, 256)
	n, _ := rresp.Body.Read(body)
	rresp.Body.Close()
	if rresp.StatusCode != http.StatusServiceUnavailable || !strings.HasPrefix(string(body[:n]), "degraded:") {
		t.Fatalf("readyz while degraded = %d %q, want 503 \"degraded: ...\"", rresp.StatusCode, string(body[:n]))
	}
	if !strings.Contains(string(body[:n]), wantAttr) {
		t.Errorf("readyz cause %q does not name the triggering request (%s)", string(body[:n]), wantAttr)
	}
	if got := reg.Snapshot().Rejected["degraded/mutation"]; got < 1 {
		t.Errorf("rejected_total{degraded,mutation} = %d, want >= 1", got)
	}

	// Heal the disk: the probe recovers the store, writes flow again.
	failpoint.Disable("wal/sync")
	waitRecovered(t, s.Store())
	resp2, err := http.Post(ts.URL+"/update", "application/json",
		strings.NewReader(`{"facts": ["p(4,5)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
	if resp2.StatusCode != http.StatusOK {
		t.Errorf("post-recovery mutation status = %d, want 200", resp2.StatusCode)
	}
	rresp2, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	rresp2.Body.Close()
	if rresp2.StatusCode != http.StatusOK {
		t.Errorf("post-recovery readyz = %d, want 200", rresp2.StatusCode)
	}
}

// TestChaosSoak drives concurrent read/write traffic through every
// fault at once — probabilistic WAL sync errors, injected handler
// latency, connections killed before the handler (request lost) and
// after it (ack lost) — with every call retried under one Idempotency-Key
// and trace id (postRetrying), then
// asserts the chaos invariants: no goroutine leaks, every acked write
// survives a restart, every completed query is sound, and within one
// client no query pins a version older than that client's last
// acknowledged write.
func TestChaosSoak(t *testing.T) {
	defer failpoint.Reset()
	check := leakcheck.Check(t)

	dir := t.TempDir()
	reg := obs.NewRegistry()
	srv, err := New(Config{
		Source:         chainSrc,
		WALDir:         dir,
		MaxConcurrent:  2,
		MaxQueue:       8,
		QueueTimeout:   200 * time.Millisecond,
		DefaultTimeout: 2 * time.Second,
		ProbeEvery:     5 * time.Millisecond,
		Registry:       reg,
		FlightSize:     4096,
	})
	if err != nil {
		t.Fatal(err)
	}

	// Connection chaos: every 13th request dies before the handler
	// (the write never happens), every 7th dies after it (the write
	// happens, the ack is lost) — the idempotent retry must converge
	// to exactly-once either way.
	var reqN atomic.Int64
	inner := srv.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		switch n := reqN.Add(1); {
		case n%13 == 0:
			panic(http.ErrAbortHandler)
		case n%7 == 0:
			inner.ServeHTTP(discardWriter{h: http.Header{}}, r)
			panic(http.ErrAbortHandler)
		default:
			inner.ServeHTTP(w, r)
		}
	}))

	// Disk and latency chaos, both on deterministic schedules.
	failpoint.Enable("wal/sync", failpoint.Config{Act: failpoint.ActError, Err: errDisk, Prob: 0.3, Seed: 7})
	failpoint.Enable("server/slow", failpoint.Config{Act: failpoint.ActDelay, Delay: 5 * time.Millisecond, Prob: 0.3, Seed: 11})

	var ackedMu sync.Mutex
	acked := map[string]bool{} // fact source text -> acked by the server
	var wg sync.WaitGroup
	const workers, iters = 4, 30
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := NewClient(ts.URL)
			var lastAcked uint64 // seq of this client's latest acknowledged write
			for i := 0; i < iters; i++ {
				if i%3 == 0 {
					f := fmt.Sprintf("p(w%d_%d,99)", w, i)
					res, err := mutateRetrying(context.Background(), c, "update", []string{f}, time.Second)
					if err == nil && res.Status == http.StatusOK {
						lastAcked = res.Seq
						ackedMu.Lock()
						acked[f] = true
						ackedMu.Unlock()
					}
					continue
				}
				res, err := queryRetrying(context.Background(), c, "a(X,Y)", 500*time.Millisecond)
				if err != nil {
					continue // transport chaos: the connection was killed
				}
				if res.Status == http.StatusOK && res.Seq < lastAcked {
					t.Errorf("worker %d: query pinned seq %d after its write was acked at seq %d", w, res.Seq, lastAcked)
				}
				switch {
				case res.Status == http.StatusOK && !res.Partial:
					// Soundness: a completed closure query always holds at
					// least the 6 base-chain answers; mutations only add.
					if res.Count < 6 {
						t.Errorf("complete query returned %d answers, want >= 6", res.Count)
					}
				case res.Status == http.StatusOK,
					res.Status == http.StatusTooManyRequests,
					res.Status == http.StatusServiceUnavailable:
					// partials and rejections are the overload design working
				default:
					t.Errorf("unexpected query status %d (%s)", res.Status, res.Err)
				}
			}
		}(w)
	}
	wg.Wait()

	// Chaos off; let the store heal, then shut down cleanly.
	failpoint.Reset()
	waitRecovered(t, srv.Store())
	drainCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	srv.Drain(drainCtx)
	ts.Close()
	if err := srv.Close(); err != nil {
		t.Errorf("close: %v", err)
	}
	check() // no goroutine may survive the drain + close

	if len(acked) == 0 {
		t.Fatal("chaos run acked no mutations; the soak exercised nothing")
	}

	// Tracing invariant under connection chaos: a retried call reuses its
	// trace id across attempts but every attempt is a distinct recorder
	// entry — the flight recorder must never hold a duplicate
	// (trace, span) pair, killed connections and lost acks included.
	seenSpan := map[[2]string]bool{}
	perTrace := map[string]int{}
	for _, req := range srv.FlightRecorder().Snapshot(0) {
		key := [2]string{req.TraceID, req.SpanID}
		if seenSpan[key] {
			t.Errorf("flight recorder holds a duplicate (trace, span) pair %v", key)
		}
		seenSpan[key] = true
		perTrace[req.TraceID]++
		if err := req.Validate(); err != nil {
			t.Errorf("recorded trace invalid under chaos: %v", err)
		}
	}
	multi := 0
	for _, n := range perTrace {
		if n > 1 {
			multi++
		}
	}
	if multi == 0 {
		t.Error("no trace has multiple attempt entries; the connection chaos never forced a retry")
	}
	t.Logf("flight recorder: %d entries, %d traces with retried attempts", len(seenSpan), multi)

	// Restart from disk: every acked write must be present exactly as
	// acknowledged — lost-ack retries included.
	prog, db, err := existdlog.Parse(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	st2, err := NewStore(prog, db, StoreConfig{WALDir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	have := map[string]bool{}
	for _, row := range st2.Current().EDB.Facts("p") {
		have[fmt.Sprintf("p(%s,%s)", row[0], row[1])] = true
	}
	for f := range acked {
		if !have[f] {
			t.Errorf("acked write %s missing after restart", f)
		}
	}
	t.Logf("chaos soak: %d acked writes all durable, %d HTTP requests total", len(acked), reqN.Load())
}

// TestChaosCrashBetweenCheckpointAndLogReset: the "store/checkpoint"
// failpoint fails the step between writing a checkpoint and replacing the
// log, leaving on disk what a crash there leaves: the new checkpoint
// behind the old, full log. Recovery must apply no record twice, keep
// every key spent, and the next checkpoint must replace the log with the
// keys alone.
func TestChaosCrashBetweenCheckpointAndLogReset(t *testing.T) {
	defer failpoint.Reset()
	dir := t.TempDir()
	cfg := StoreConfig{WALDir: dir, SnapshotEvery: 2}
	failpoint.Enable("store/checkpoint", failpoint.Config{Act: failpoint.ActError, Err: errors.New("injected crash before the log reset"), Count: 1})
	st := newTestStore(t, chainSrc, cfg)
	mustMutateKeyed(t, st, "k1", fact("p", "4", "5"))
	if seq, err := st.Mutate(context.Background(), Mutation{Op: wal.OpRetract, Facts: []wal.Fact{fact("p", "4", "5")}, ID: "k2"}); err != nil || seq != 2 {
		t.Fatalf("k2: seq %d, %v; want 2", seq, err)
	}
	st.Close()
	if hits := failpoint.Hits("store/checkpoint"); hits != 1 {
		t.Fatalf("store/checkpoint hit %d times, want 1", hits)
	}
	if seq, _, err := wal.ReadSnapshotFile(filepath.Join(dir, snapFile)); err != nil || seq != 2 {
		t.Fatalf("checkpoint at seq %d (%v), want 2", seq, err)
	}
	if got, want := fmt.Sprint(logKeys(t, dir)), "[update k1@1 retract k2@2]"; got != want {
		t.Fatalf("log behind the checkpoint holds %s, want the old records %s", got, want)
	}

	st = newTestStore(t, chainSrc, cfg)
	// Re-applying the update at seq 1 would bring p(4,5) back.
	if v := st.Current(); v.Seq != 2 || contains(v.EDB.Facts("p"), []string{"4", "5"}) {
		t.Fatalf("recovered seq %d with p(4,5) %v; want seq 2 without it", v.Seq, contains(v.EDB.Facts("p"), []string{"4", "5"}))
	}
	if seq := mustMutateKeyed(t, st, "k1", fact("p", "4", "5")); seq != 1 {
		t.Fatalf("k1 after the crash acked seq %d, want 1", seq)
	}
	mustMutateKeyed(t, st, "k3", fact("p", "5", "6"))
	mustMutateKeyed(t, st, "k4", fact("p", "6", "7")) // the next checkpoint, at seq 4
	st.Close()
	if got, want := fmt.Sprint(logKeys(t, dir)), "[key k1@1 key k2@2 key k3@3 key k4@4]"; got != want {
		t.Fatalf("log after the next checkpoint holds %s, want %s", got, want)
	}
	st = newTestStore(t, chainSrc, cfg)
	for i, id := range []string{"k1", "k2", "k3", "k4"} {
		if seq := mustMutateKeyed(t, st, id, fact("p", "9", "9")); seq != uint64(i+1) {
			t.Errorf("%s acked seq %d, want %d", id, seq, i+1)
		}
	}
	if v := st.Current(); v.Seq != 4 {
		t.Errorf("store at seq %d, want 4: a retry was applied again", v.Seq)
	}
}
