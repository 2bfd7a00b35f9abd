package server

import (
	"context"
	"errors"
	"net/http"
	"sync"
	"testing"
	"time"

	"existdlog/internal/obs"
)

// queuedWaiters counts live queue entries across all classes (test-only
// peek under the controller's lock).
func queuedWaiters(a *admission) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for _, q := range a.queues {
		for _, w := range q {
			if w.state == waiting {
				n++
			}
		}
	}
	return n
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func TestOverloadAdmitImmediateWhenFree(t *testing.T) {
	adm := newAdmission(2, 4, time.Minute, obs.NewRegistry())
	for i := 0; i < 2; i++ {
		if err := adm.admit(context.Background(), admitQuery); err != nil {
			t.Fatalf("admit %d with free slots: %v", i, err)
		}
	}
	adm.release()
	adm.release()
	if err := adm.admit(context.Background(), admitMutation); err != nil {
		t.Fatalf("admit after release: %v", err)
	}
	adm.release()
}

func TestOverloadQueueFullRejectsImmediately(t *testing.T) {
	adm := newAdmission(1, 1, time.Minute, obs.NewRegistry())
	if err := adm.admit(context.Background(), admitQuery); err != nil {
		t.Fatal(err)
	}
	// One waiter fills the class queue.
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		if err := adm.admit(context.Background(), admitQuery); err != nil {
			t.Errorf("queued waiter: %v", err)
			return
		}
		adm.release()
	}()
	waitFor(t, "waiter to queue", func() bool { return queuedWaiters(adm) == 1 })

	// The queue is at capacity: the next arrival is rejected without
	// blocking.
	start := time.Now()
	if err := adm.admit(context.Background(), admitQuery); !errors.Is(err, errQueueFull) {
		t.Fatalf("admit on full queue = %v, want errQueueFull", err)
	}
	if waited := time.Since(start); waited > time.Second {
		t.Errorf("full-queue rejection took %v, want immediate", waited)
	}
	adm.release()
	wg.Wait()
}

func TestOverloadQueueTimeout(t *testing.T) {
	adm := newAdmission(1, 4, 30*time.Millisecond, obs.NewRegistry())
	if err := adm.admit(context.Background(), admitQuery); err != nil {
		t.Fatal(err)
	}
	defer adm.release()
	if err := adm.admit(context.Background(), admitQuery); !errors.Is(err, errQueueTimeout) {
		t.Fatalf("admit past queue timeout = %v, want errQueueTimeout", err)
	}
}

// TestOverloadShedExpiredWaiter is the shed-at-dequeue contract at the
// controller level: a queued request whose own deadline dies while it
// waits comes back errShed, is counted in shed_total, and the pool
// stays healthy afterwards.
func TestOverloadShedExpiredWaiter(t *testing.T) {
	reg := obs.NewRegistry()
	adm := newAdmission(1, 4, time.Minute, reg)
	if err := adm.admit(context.Background(), admitQuery); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := adm.admit(ctx, admitQuery); !errors.Is(err, errShed) {
		t.Fatalf("admit with expiring deadline = %v, want errShed", err)
	}
	if got := reg.Snapshot().Shed; got != 1 {
		t.Errorf("shed_total = %d, want 1", got)
	}
	adm.release()
	// The shed waiter left no residue: a fresh request admits instantly.
	if err := adm.admit(context.Background(), admitQuery); err != nil {
		t.Fatalf("admit after shed: %v", err)
	}
	adm.release()
}

// TestOverloadPriorityOrder pins the grant order: when a slot frees,
// a queued query beats a queued mutation even though the mutation
// arrived first.
func TestOverloadPriorityOrder(t *testing.T) {
	adm := newAdmission(1, 4, time.Minute, obs.NewRegistry())
	if err := adm.admit(context.Background(), admitQuery); err != nil {
		t.Fatal(err)
	}

	order := make(chan admitClass, 2)
	var wg sync.WaitGroup
	launch := func(c admitClass) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := adm.admit(context.Background(), c); err != nil {
				t.Errorf("admit(%v): %v", c, err)
				return
			}
			order <- c
			adm.release()
		}()
	}
	launch(admitMutation)
	waitFor(t, "mutation to queue", func() bool { return queuedWaiters(adm) == 1 })
	launch(admitQuery)
	waitFor(t, "query to queue", func() bool { return queuedWaiters(adm) == 2 })

	adm.release()
	first, second := <-order, <-order
	wg.Wait()
	if first != admitQuery || second != admitMutation {
		t.Errorf("grant order = %v then %v, want query then mutation", first, second)
	}
}

// TestOverloadHTTPRejects429WithRetryAfter drives the whole HTTP path
// into overload: one slot, a queue of one. The slot is pinned by a
// long-deadline query over a program that counts forever; the next
// request occupies the queue and 503s at the queue timeout; a third is
// refused on the spot with 429 — both rejections carrying Retry-After.
// Probes and scrapes never enter admission, so /healthz and /metrics
// answer 200 while the slot is pinned. After the load drains, the server
// serves again (the e2e smoke mirrors this recovery check from outside
// the process).
func TestOverloadHTTPRejects429WithRetryAfter(t *testing.T) {
	reg := obs.NewRegistry()
	s, ts := newTestServer(t, Config{
		Source:        countSrc,
		MaxConcurrent: 1,
		MaxQueue:      1,
		QueueTimeout:  150 * time.Millisecond,
		MaxTimeout:    5 * time.Second,
		Registry:      reg,
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // pins the only slot for ~1.2s, returns a sound partial
		defer wg.Done()
		resp, _ := postQuery(t, ts.URL, `{"timeout_ms": 1200}`)
		if resp.StatusCode != http.StatusOK {
			t.Errorf("blocker status = %d, want 200 (partial)", resp.StatusCode)
		}
	}()
	waitFor(t, "blocker to hold the slot", func() bool { return reg.Snapshot().InFlight == 1 })
	for _, path := range []string{"/healthz", "/metrics"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("GET %s with the only slot pinned = %d, want 200", path, resp.StatusCode)
		}
	}

	wg.Add(1)
	go func() { // fills the queue, then times out of it
		defer wg.Done()
		resp, _ := postQuery(t, ts.URL, `{"timeout_ms": 1200}`)
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("queued request status = %d, want 503 (queue timeout)", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("503 queue-timeout rejection has no Retry-After header")
		}
	}()
	waitFor(t, "request to queue", func() bool { return reg.Snapshot().QueueDepth == 1 })

	// Queue full: immediate 429.
	resp, _ := postQuery(t, ts.URL, `{"timeout_ms": 1200}`)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("over-capacity status = %d, want 429", resp.StatusCode)
	}
	if ra := resp.Header.Get("Retry-After"); ra != "1" {
		t.Errorf("Retry-After = %q, want \"1\" (queue timeout rounded up)", ra)
	}
	wg.Wait()

	snap := s.Registry().Snapshot()
	if got := snap.Rejected["queue_full/query"]; got != 1 {
		t.Errorf("rejected_total{queue_full,query} = %d, want 1", got)
	}
	if got := snap.Rejected["queue_timeout/query"]; got != 1 {
		t.Errorf("rejected_total{queue_timeout,query} = %d, want 1", got)
	}

	// Recovery: with the overload gone, the same endpoint serves again.
	resp, _ = postQuery(t, ts.URL, `{"timeout_ms": 50}`)
	if resp.StatusCode != http.StatusOK {
		t.Errorf("post-overload status = %d, want 200", resp.StatusCode)
	}
}

// TestOverloadShedExpiredRequestNeverEvaluates is the satellite
// regression: a saturated server plus a short client timeout_ms. The
// victim's deadline dies while it queues, so it must be shed — a 503,
// counted in shed_total, and crucially *no* query outcome recorded,
// because it never reached the engine. (Evaluating it would have
// produced a 200 partial: observing 503 proves it was never started.)
func TestOverloadShedExpiredRequestNeverEvaluates(t *testing.T) {
	reg := obs.NewRegistry()
	_, ts := newTestServer(t, Config{
		Source:        countSrc,
		MaxConcurrent: 1,
		MaxQueue:      8,
		QueueTimeout:  5 * time.Second,
		MaxTimeout:    5 * time.Second,
		Registry:      reg,
	})

	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // saturates the single slot for ~600ms
		defer wg.Done()
		postQuery(t, ts.URL, `{"timeout_ms": 600}`)
	}()
	waitFor(t, "blocker to hold the slot", func() bool { return reg.Snapshot().InFlight == 1 })

	resp, _ := postQuery(t, ts.URL, `{"timeout_ms": 50}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("expired-in-queue status = %d, want 503", resp.StatusCode)
	}
	wg.Wait()

	snap := reg.Snapshot()
	if snap.Shed == 0 {
		t.Error("shed_total = 0, want > 0")
	}
	// Exactly one query outcome: the blocker's partial. The shed victim
	// contributes nothing — it never evaluated.
	if got := snap.Queries[obs.OutcomePartial]; got != 1 {
		t.Errorf("queries_total{partial} = %d, want 1 (the blocker alone)", got)
	}
	if got := snap.Queries[obs.OutcomeOK] + snap.Queries[obs.OutcomeError]; got != 0 {
		t.Errorf("unexpected ok/error outcomes = %d, want 0", got)
	}
}
