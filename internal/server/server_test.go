package server

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"existdlog/internal/leakcheck"
	"existdlog/internal/obs"
)

var update = flag.Bool("update", false, "rewrite golden files")

// chainSrc is the served program of most tests: transitive closure over
// a 4-node chain, with its own default goal.
const chainSrc = `a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
p(1,2). p(2,3). p(3,4).
`

// countSrc counts forever: only a deadline or an abort stops it, so it
// exercises the partial-result paths.
const countSrc = `n(X) :- seed(X).
n(Y) :- n(X), succ(X,Y).
?- n(X).
seed(0).
`

// fakeClock steps a fixed amount per Now call. The query handler reads
// the clock exactly twice per counted request, so with a fake clock
// every query observes the same latency and the metrics scrape is
// byte-deterministic.
type fakeClock struct {
	mu   sync.Mutex
	t    time.Time
	step time.Duration
}

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.t = c.t.Add(c.step)
	return c.t
}

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	t.Cleanup(func() { s.Close() })
	return s, ts
}

func postQuery(t *testing.T, url string, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

func TestQueryAnswers(t *testing.T) {
	_, ts := newTestServer(t, Config{Source: chainSrc})
	resp, out := postQuery(t, ts.URL, `{"goal": "a(X,Y)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d, body %v", resp.StatusCode, out)
	}
	if got := out["count"].(float64); got != 6 {
		t.Errorf("count = %v, want 6 (closure of a 4-chain)", got)
	}
	if out["cached"].(bool) {
		t.Error("first query reported a cache hit")
	}
	if _, ok := out["stats"].(map[string]any); !ok {
		t.Errorf("response has no stats object: %v", out)
	}

	// Same goal shape again: served from the compiled cache.
	_, out = postQuery(t, ts.URL, `{"goal": "a(U,V)"}`)
	if !out["cached"].(bool) {
		t.Error("alpha-renamed goal missed the compiled cache")
	}

	// Constants act as selections and are part of the cache key.
	_, out = postQuery(t, ts.URL, `{"goal": "a(1,Y)"}`)
	if out["cached"].(bool) {
		t.Error("selected goal a(1,Y) shares a cache entry with a(X,Y)")
	}
	if got := out["count"].(float64); got != 3 {
		t.Errorf("a(1,Y) count = %v, want 3", got)
	}

	// Empty body evaluates the program's own "?- goal.".
	_, out = postQuery(t, ts.URL, ``)
	if got := out["count"].(float64); got != 6 {
		t.Errorf("default-goal count = %v, want 6", got)
	}

	// Base relations answer too.
	_, out = postQuery(t, ts.URL, `{"goal": "p(1,X)"}`)
	if got := out["count"].(float64); got != 1 {
		t.Errorf("p(1,X) count = %v, want 1", got)
	}

	// Per-request trace: the per-rule metrics ride along.
	_, out = postQuery(t, ts.URL, `{"goal": "a(X,Y)", "trace": true}`)
	if rules, ok := out["rules"].([]any); !ok || len(rules) == 0 {
		t.Errorf("trace:true response has no rules: %v", out)
	}
}

func TestQueryErrorPaths(t *testing.T) {
	s, ts := newTestServer(t, Config{Source: chainSrc})

	// Malformed goal: 400 with the parse error in the body.
	resp, out := postQuery(t, ts.URL, `{"goal": "a(X,"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed goal: status %d, want 400 (%v)", resp.StatusCode, out)
	}
	if msg, _ := out["error"].(string); !strings.Contains(msg, "parsing goal") {
		t.Errorf("malformed goal error = %q", out["error"])
	}

	// Malformed JSON body.
	resp, out = postQuery(t, ts.URL, `{"goal": `)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body: status %d (%v)", resp.StatusCode, out)
	}

	// Arity mismatch: a/1 against rules defining a/2.
	resp, out = postQuery(t, ts.URL, `{"goal": "a(X)"}`)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("arity mismatch: status %d, want 400 (%v)", resp.StatusCode, out)
	}

	// Wrong method.
	getResp, err := http.Get(ts.URL + "/query")
	if err != nil {
		t.Fatal(err)
	}
	getResp.Body.Close()
	if getResp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /query: status %d, want 405", getResp.StatusCode)
	}

	// Every failed request shows up in the error outcome counter
	// (the 405 is rejected before it counts as a query).
	if got := s.Registry().Snapshot().Queries[obs.OutcomeError]; got != 3 {
		t.Errorf("error outcome counter = %d, want 3", got)
	}
}

func TestQueryTimeoutReturnsPartial(t *testing.T) {
	_, ts := newTestServer(t, Config{Source: countSrc})
	resp, out := postQuery(t, ts.URL, `{"goal": "n(X)", "timeout_ms": 50}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("timed-out query: status %d, want 200 (%v)", resp.StatusCode, out)
	}
	if partial, _ := out["partial"].(bool); !partial {
		t.Fatalf("timed-out query not marked partial: %v", out)
	}
	if inc, _ := out["incomplete"].(string); inc != "deadline exceeded" {
		t.Errorf("incomplete = %q, want \"deadline exceeded\"", out["incomplete"])
	}
	if got := out["count"].(float64); got < 1 {
		t.Errorf("partial result carries no answers: count = %v", got)
	}
}

func TestMaxFactsReturnsPartial(t *testing.T) {
	_, ts := newTestServer(t, Config{Source: countSrc, MaxFacts: 100})
	resp, out := postQuery(t, ts.URL, `{"goal": "n(X)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("limit-hit query: status %d (%v)", resp.StatusCode, out)
	}
	if inc, _ := out["incomplete"].(string); inc != "fact limit exceeded" {
		t.Errorf("incomplete = %q, want \"fact limit exceeded\"", out["incomplete"])
	}
}

func TestHealthAndReady(t *testing.T) {
	s, ts := newTestServer(t, Config{Source: chainSrc})
	for _, path := range []string{"/healthz", "/readyz"} {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("%s: status %d, want 200", path, resp.StatusCode)
		}
	}
	s.BeginDrain()
	resp, err := http.Get(ts.URL + "/readyz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /readyz: status %d, want 503", resp.StatusCode)
	}
	qresp, out := postQuery(t, ts.URL, `{"goal": "a(X,Y)"}`)
	if qresp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("draining /query: status %d, want 503 (%v)", qresp.StatusCode, out)
	}
	// Liveness is unaffected by draining.
	resp, err = http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("draining /healthz: status %d, want 200", resp.StatusCode)
	}
}

func TestPprofMounted(t *testing.T) {
	_, ts := newTestServer(t, Config{Source: chainSrc})
	resp, err := http.Get(ts.URL + "/debug/pprof/cmdline")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Errorf("/debug/pprof/cmdline: status %d, want 200", resp.StatusCode)
	}
}

// TestMetricsGolden byte-matches a /metrics scrape after a fixed request
// sequence. The injected stepping clock makes the latency histogram
// deterministic; the process start time is the one wall-clock line and
// is stripped before comparison. Refresh with: go test ./internal/server
// -run TestMetricsGolden -update
// TestBaseAndUndefinedGoalsDeriveNothing: a goal over a base relation or
// an undefined predicate goes through the optimizer like any other, which
// keeps no rule the goal does not reach, so it derives no fact. An
// undefined predicate is not proved empty: the optimizer reasons from
// rules alone, and once a write adds facts under that name the cached
// pattern answers them.
func TestBaseAndUndefinedGoalsDeriveNothing(t *testing.T) {
	_, ts := newTestServer(t, Config{Source: chainSrc})
	facts := func(out map[string]any) float64 {
		return out["stats"].(map[string]any)["facts_derived"].(float64)
	}

	resp, out := postQuery(t, ts.URL, `{"goal": "p(1,X)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("p(1,X): status %d (%v)", resp.StatusCode, out)
	}
	if got := fmt.Sprint(out["answers"]); got != "[[1 2]]" {
		t.Errorf("p(1,X) answers %s, want [[1 2]]", got)
	}
	if n := facts(out); n != 0 {
		t.Errorf("p(1,X) derived %v facts, want 0", n)
	}

	resp, out = postQuery(t, ts.URL, `{"goal": "zz(1,X)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("zz(1,X): status %d (%v)", resp.StatusCode, out)
	}
	if out["count"].(float64) != 0 || facts(out) != 0 {
		t.Errorf("zz(1,X): count %v, facts %v, want 0 and 0", out["count"], facts(out))
	}
	if empty, _ := out["proved_empty"].(bool); empty {
		t.Error("zz(1,X) was proved empty from the rules, which no write could then change")
	}

	upd, err := http.Post(ts.URL+"/update", "application/json", strings.NewReader(`{"facts": ["zz(1,2)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	upd.Body.Close()
	if upd.StatusCode != http.StatusOK {
		t.Fatalf("/update zz(1,2): status %d", upd.StatusCode)
	}
	_, out = postQuery(t, ts.URL, `{"goal": "zz(1,X)"}`)
	if !out["cached"].(bool) {
		t.Error("zz(1,X) after the write missed the compiled cache")
	}
	if got := fmt.Sprint(out["answers"]); got != "[[1 2]]" {
		t.Errorf("zz(1,X) after adding zz(1,2) answers %s, want [[1 2]]", got)
	}
}

// TestMetricsGolden scrapes /metrics after a fixed request list under a
// stepping clock. The list runs twice, each time on a fresh server: as
// written, then with "trace": true added to every body. Only trace
// requests make the engine record join orders, and /metrics reads none of
// them, so both scrapes must equal the golden file.
func TestMetricsGolden(t *testing.T) {
	bodies := []string{
		``,                       // default goal, cache miss
		`{"goal": "a(X,Y)"}`,     // cache hit
		`{"goal": "a(1,Y)"}`,     // selection, separate cache entry
		`{"goal": "p(1,X)"}`,     // base relation, derives nothing
		`{"goal": "broken(((("}`, // parse error, error outcome
	}
	golden := filepath.Join("testdata", "metrics.golden")
	for _, traced := range []bool{false, true} {
		t.Run(fmt.Sprintf("trace=%v", traced), func(t *testing.T) {
			clock := &fakeClock{
				t:    time.Date(2026, 1, 1, 0, 0, 0, 0, time.UTC),
				step: time.Millisecond,
			}
			_, ts := newTestServer(t, Config{Source: chainSrc, Now: clock.Now})
			for _, body := range bodies {
				if traced && body == "" {
					body = `{"trace": true}`
				} else if traced {
					body = strings.TrimSuffix(body, "}") + `, "trace": true}`
				}
				resp, _ := postQuery(t, ts.URL, body)
				resp.Body.Close()
			}
			resp, err := http.Get(ts.URL + "/metrics")
			if err != nil {
				t.Fatal(err)
			}
			raw, err := readAll(resp)
			if err != nil {
				t.Fatal(err)
			}

			// The scrape must be valid exposition before anything else.
			if _, err := obs.ParseExposition(bytes.NewReader(raw)); err != nil {
				t.Fatalf("scrape does not parse: %v\n%s", err, raw)
			}

			got := stripStartTime(raw)
			if *update && !traced {
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run with -update to write it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("scrape diverges from %s:\n%s", golden, diffLines(want, got))
			}
		})
	}
}

// TestCompiledCacheIsBounded: the cache holds one entry per binding
// pattern, so 3×maxCompiled constants of one shape leave exactly one
// entry, each served from it after the first. The cap is a backstop for
// the one key part the client chooses freely, the predicate name: goals
// over 3×maxCompiled distinct undefined predicates never push the entries
// gauge past the cap, and a goal asked again right away is still cached.
func TestCompiledCacheIsBounded(t *testing.T) {
	s, ts := newTestServer(t, Config{Source: chainSrc})
	h := s.Handler()
	query := func(goal string) map[string]any {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(`{"goal": "`+goal+`"}`))
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, req)
		var out map[string]any
		if err := json.Unmarshal(rec.Body.Bytes(), &out); err != nil || rec.Code != http.StatusOK {
			t.Fatalf("%s: status %d, %v: %s", goal, rec.Code, err, rec.Body)
		}
		return out
	}
	for i := 0; i < 3*maxCompiled; i++ {
		if out := query(fmt.Sprintf("p(%d,X)", i)); out["cached"].(bool) != (i > 0) {
			t.Fatalf("goal %d: cached = %v", i, out["cached"])
		}
	}
	if n := s.Registry().Snapshot().CacheEntries; n != 1 {
		t.Errorf("one pattern left %d cache entries, want 1", n)
	}

	peak := int64(0)
	for i := 0; i < 3*maxCompiled; i++ {
		// Undefined predicates evaluate as written, without the optimizer:
		// every name is a new cache entry.
		if out := query(fmt.Sprintf("u%d(X)", i)); out["cached"].(bool) {
			t.Fatalf("predicate u%d was never asked before but reports cached", i)
		}
		if n := s.Registry().Snapshot().CacheEntries; n > peak {
			peak = n
		}
	}
	if peak != maxCompiled {
		t.Errorf("cache peaked at %d entries, want exactly the cap %d", peak, maxCompiled)
	}
	if out := query(fmt.Sprintf("u%d(X)", 3*maxCompiled-1)); !out["cached"].(bool) {
		t.Error("the goal asked last is not cached")
	}
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := readAll(resp)
	if err != nil {
		t.Fatal(err)
	}
	// The 1 + 3×cap inserts reset the map three times, the last of them
	// right before the last insert.
	if want := "\nexistdlog_compiled_cache_entries 1\n"; !bytes.Contains(raw, []byte(want)) {
		t.Errorf("scrape lacks %q", want)
	}
}

func readAll(resp *http.Response) ([]byte, error) {
	defer resp.Body.Close()
	var buf bytes.Buffer
	_, err := buf.ReadFrom(resp.Body)
	return buf.Bytes(), err
}

// stripStartTime drops the process-start-time and uptime families — the
// only wall-clock-dependent lines in the exposition.
func stripStartTime(b []byte) []byte {
	var out bytes.Buffer
	for _, line := range strings.SplitAfter(string(b), "\n") {
		if strings.Contains(line, "existdlog_process_start_time_seconds") ||
			strings.Contains(line, "existdlog_process_uptime_seconds") {
			continue
		}
		out.WriteString(line)
	}
	return out.Bytes()
}

func diffLines(want, got []byte) string {
	w := strings.Split(string(want), "\n")
	g := strings.Split(string(got), "\n")
	var sb strings.Builder
	for i := 0; i < len(w) || i < len(g); i++ {
		var wl, gl string
		if i < len(w) {
			wl = w[i]
		}
		if i < len(g) {
			gl = g[i]
		}
		if wl != gl {
			fmt.Fprintf(&sb, "line %d:\n  want %q\n  got  %q\n", i+1, wl, gl)
		}
	}
	return sb.String()
}

// TestConcurrentScrapeWhileQuerying races queries against scrapes; run
// under -race in the CI serve job. Every scrape must parse, and after
// the dust settles the outcome counters account for every request.
func TestConcurrentScrapeWhileQuerying(t *testing.T) {
	s, ts := newTestServer(t, Config{Source: chainSrc, MaxConcurrent: 4})
	const queriers, queries = 4, 25
	const scrapers, scrapes = 2, 25
	var wg sync.WaitGroup
	for w := 0; w < queriers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			goals := []string{`{"goal": "a(X,Y)"}`, `{"goal": "a(1,Y)"}`, `{"goal": "p(X,_)"}`}
			for i := 0; i < queries; i++ {
				resp, err := http.Post(ts.URL+"/query", "application/json",
					strings.NewReader(goals[(w+i)%len(goals)]))
				if err != nil {
					t.Error(err)
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					t.Errorf("query status %d", resp.StatusCode)
					return
				}
			}
		}(w)
	}
	for w := 0; w < scrapers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < scrapes; i++ {
				resp, err := http.Get(ts.URL + "/metrics")
				if err != nil {
					t.Error(err)
					return
				}
				raw, err := readAll(resp)
				if err != nil {
					t.Error(err)
					return
				}
				if _, err := obs.ParseExposition(bytes.NewReader(raw)); err != nil {
					t.Errorf("mid-flight scrape invalid: %v", err)
					return
				}
			}
		}()
	}
	wg.Wait()
	snap := s.Registry().Snapshot()
	if got := snap.Queries[obs.OutcomeOK]; got != queriers*queries {
		t.Errorf("ok outcomes = %d, want %d", got, queriers*queries)
	}
	if snap.InFlight != 0 || snap.QueueDepth != 0 {
		t.Errorf("gauges did not settle: in_flight=%d queue=%d", snap.InFlight, snap.QueueDepth)
	}
}

// TestDrainAbortsInFlight is the graceful-shutdown path: a long query is
// in flight, the server drains with a short grace, the query comes back
// as a sound partial, and no goroutines are left behind.
func TestDrainAbortsInFlight(t *testing.T) {
	defer leakcheck.Check(t)()
	s, err := New(Config{Source: countSrc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	type result struct {
		status int
		out    map[string]any
	}
	done := make(chan result, 1)
	go func() {
		resp, err := http.Post(ts.URL+"/query", "application/json",
			strings.NewReader(`{"goal": "n(X)"}`))
		if err != nil {
			done <- result{}
			return
		}
		defer resp.Body.Close()
		var out map[string]any
		json.NewDecoder(resp.Body).Decode(&out)
		done <- result{resp.StatusCode, out}
	}()

	// Wait for the query to be in flight before draining.
	deadline := time.Now().Add(5 * time.Second)
	for s.Registry().Snapshot().InFlight == 0 {
		if time.Now().After(deadline) {
			t.Fatal("query never became in-flight")
		}
		time.Sleep(2 * time.Millisecond)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); err == nil {
		t.Error("Drain returned nil; the unbounded query should have needed an abort")
	}

	res := <-done
	if res.status != http.StatusOK {
		t.Fatalf("aborted query: status %d (%v)", res.status, res.out)
	}
	if partial, _ := res.out["partial"].(bool); !partial {
		t.Errorf("aborted query not partial: %v", res.out)
	}
	if inc, _ := res.out["incomplete"].(string); inc != "canceled" {
		t.Errorf("incomplete = %q, want \"canceled\"", res.out["incomplete"])
	}
	snap := s.Registry().Snapshot()
	if got := snap.Queries[obs.OutcomePartial]; got != 1 {
		t.Errorf("partial outcomes = %d, want 1", got)
	}
}
