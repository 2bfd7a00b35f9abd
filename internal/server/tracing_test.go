package server

import (
	"bytes"
	"context"
	"encoding/json"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"existdlog/internal/tracespan"
)

// postTraced posts a query with an explicit W3C traceparent header and
// returns the decoded body plus the client-side ids it sent.
func postTraced(t *testing.T, url, body string) (map[string]any, tracespan.TraceID, tracespan.SpanID) {
	t.Helper()
	tid, sid := tracespan.NewTraceID(), tracespan.NewSpanID()
	req, err := http.NewRequest(http.MethodPost, url+"/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", tracespan.Traceparent(tid, sid))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	out := decodeBody(t, resp)
	return out, tid, sid
}

func decodeBody(t *testing.T, resp *http.Response) map[string]any {
	t.Helper()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return out
}

// spanNames collects the names of the top-level stage spans, in order.
func spanNames(req *tracespan.Request) []string {
	var names []string
	for _, sp := range req.Spans {
		if sp.Parent == tracespan.RootSpan {
			names = append(names, sp.Name)
		}
	}
	return names
}

// evalPasses counts the eval span's "pass N" children and returns its
// passes attr ("" when absent).
func evalPasses(req *tracespan.Request) (children int, passes string) {
	evalIdx := -1
	for i, sp := range req.Spans {
		if sp.Name == "eval" {
			evalIdx = i
			for _, a := range sp.Attrs {
				if a.Key == "passes" {
					passes = a.Value
				}
			}
		}
	}
	for _, sp := range req.Spans {
		if sp.Parent == evalIdx && strings.HasPrefix(sp.Name, "pass ") {
			children++
		}
	}
	return children, passes
}

func TestQueryTraceSpans(t *testing.T) {
	s, ts := newTestServer(t, Config{Source: chainSrc, FlightSize: 64})
	out, tid, sid := postTraced(t, ts.URL, `{"goal": "a(X,Y)"}`)
	if got := out["trace"]; got != tid.String() {
		t.Fatalf("response trace = %v, want the propagated id %s", got, tid)
	}

	req := s.FlightRecorder().Find(tid.String())
	if req == nil {
		t.Fatal("flight recorder has no entry for the propagated trace id")
	}
	if err := req.Validate(); err != nil {
		t.Fatalf("recorded trace fails validation: %v", err)
	}
	if req.Verb != "query" || req.Detail != "a(X,Y)" || req.Status != 200 || req.Outcome != "ok" {
		t.Errorf("trace header = %s/%s/%d/%s, want query/a(X,Y)/200/ok",
			req.Verb, req.Detail, req.Status, req.Outcome)
	}
	if req.ParentSpan != sid.String() {
		t.Errorf("parent span = %s, want the client attempt id %s", req.ParentSpan, sid)
	}

	want := []string{"decode", "compile", "queue", "eval", "respond"}
	got := spanNames(req)
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("stage spans = %v, want %v", got, want)
	}

	// An untraced request keeps no pass timeline: its eval span has no
	// per-pass children, only a passes attr counting them.
	children, attr := evalPasses(req)
	iterations := out["stats"].(map[string]any)["iterations"].(float64)
	if children != 0 || attr != strconv.Itoa(int(iterations)) {
		t.Errorf("untraced eval span: %d pass children, passes=%q; want none and passes=%v",
			children, attr, iterations)
	}
	// A "trace": true request grafts one child per pass. Transitive
	// closure of a 4-chain runs 4 semi-naive passes (the last one empty).
	_, ttid, _ := postTraced(t, ts.URL, `{"goal": "a(X,Y)", "trace": true}`)
	if children, _ := evalPasses(s.FlightRecorder().Find(ttid.String())); children < 2 {
		t.Errorf("traced eval span has %d pass children, want >= 2", children)
	}

	// The stage spans must account for (nearly) all of the request: this
	// is the invariant the slow-query log's breakdown leans on.
	if cov := req.StageCoverage(); cov < 0.5 || cov > 1.1 {
		t.Errorf("stage coverage = %.2f, want ~1 (stages %v of %v)", cov, req.StageSum(), req.Duration)
	}

	// The compile span names the cache outcome; a repeat query hits.
	out2, tid2, _ := postTraced(t, ts.URL, `{"goal": "a(U,V)"}`)
	if !out2["cached"].(bool) {
		t.Fatal("second query missed the cache")
	}
	req2 := s.FlightRecorder().Find(tid2.String())
	found := false
	for _, sp := range req2.Spans {
		for _, a := range sp.Attrs {
			if sp.Name == "compile" && a.Key == "cache" && a.Value == "hit" {
				found = true
			}
		}
	}
	if !found {
		t.Error("cache-hit query's compile span has no cache=hit attr")
	}
}

func TestMutationTraceSpans(t *testing.T) {
	s, ts := newTestServer(t, Config{Source: chainSrc, WALDir: t.TempDir(), FlightSize: 64})
	resp, err := http.Post(ts.URL+"/update", "application/json",
		strings.NewReader(`{"facts": ["p(4,5)", "p(5,6)"]}`))
	if err != nil {
		t.Fatal(err)
	}
	out := decodeBody(t, resp)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status = %d, body %v", resp.StatusCode, out)
	}
	traceID, _ := out["trace"].(string)
	if traceID == "" {
		t.Fatal("mutation response carries no trace id")
	}

	req := s.FlightRecorder().Find(traceID)
	if req == nil {
		t.Fatal("flight recorder has no entry for the mutation")
	}
	if err := req.Validate(); err != nil {
		t.Fatalf("recorded trace fails validation: %v", err)
	}
	if req.Verb != "update" || req.Detail != "2 facts" {
		t.Errorf("verb/detail = %s/%s, want update/2 facts", req.Verb, req.Detail)
	}
	if got, want := strings.Join(spanNames(req), ","), "decode,queue,store"; got != want {
		t.Errorf("stage spans = %s, want %s", got, want)
	}

	// The store span breaks down into the applier pipeline, WAL stages
	// included (the server has a WAL configured).
	storeIdx := -1
	for i, sp := range req.Spans {
		if sp.Name == "store" {
			storeIdx = i
		}
	}
	children := map[string]bool{}
	for _, sp := range req.Spans {
		if sp.Parent == storeIdx {
			children[sp.Name] = true
		}
	}
	for _, want := range []string{"applier_queue", "maintain", "wal_append", "wal_fsync", "install", "ack"} {
		if !children[want] {
			t.Errorf("store span is missing the %q sub-stage (have %v)", want, children)
		}
	}
}

func TestTraceWithoutHeader(t *testing.T) {
	s, ts := newTestServer(t, Config{Source: chainSrc, FlightSize: 16})
	resp, out := postQuery(t, ts.URL, `{"goal": "a(X,Y)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	traceID, _ := out["trace"].(string)
	if _, ok := tracespan.ParseTraceID(traceID); !ok {
		t.Fatalf("server-originated trace id %q is not 32 hex digits", traceID)
	}
	if req := s.FlightRecorder().Find(traceID); req == nil || req.ParentSpan != "" {
		t.Errorf("server-originated trace: entry %+v, want recorded with no parent span", req)
	}
}

func TestRecorderDisabled(t *testing.T) {
	_, ts := newTestServer(t, Config{Source: chainSrc})
	resp, out := postQuery(t, ts.URL, `{"goal": "a(X,Y)"}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	if _, ok := out["trace"]; ok {
		t.Error("tracing disabled, but the response still carries a trace field")
	}
	dresp, err := http.Get(ts.URL + "/debug/requests")
	if err != nil {
		t.Fatal(err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusNotFound {
		t.Errorf("/debug/requests with recorder disabled = %d, want 404", dresp.StatusCode)
	}
}

func TestRejectCarriesTrace(t *testing.T) {
	s, ts := newTestServer(t, Config{Source: chainSrc, FlightSize: 16})
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatal(err)
	}
	resp, out := postQuery(t, ts.URL, `{"goal": "a(X,Y)"}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining query status = %d, want 503", resp.StatusCode)
	}
	traceID, _ := out["trace"].(string)
	if traceID == "" || out["request"] == "" {
		t.Fatalf("rejection body %v lacks request/trace correlation ids", out)
	}
	req := s.FlightRecorder().Find(traceID)
	if req == nil || req.Outcome != "rejected:draining" {
		t.Errorf("rejection trace = %+v, want outcome rejected:draining", req)
	}
}

func TestHealthzIdentity(t *testing.T) {
	s, ts := newTestServer(t, Config{Source: chainSrc})
	s.Registry().SetBuildInfo("v9.9", "go1.99", "abc123def456")
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var body bytes.Buffer
	body.ReadFrom(resp.Body)
	lines := strings.Split(strings.TrimSpace(body.String()), "\n")
	// The liveness contract is unchanged: 200 and "ok" on the first line.
	if resp.StatusCode != http.StatusOK || lines[0] != "ok" {
		t.Fatalf("healthz = %d %q, want 200 with first line \"ok\"", resp.StatusCode, lines[0])
	}
	for _, want := range []string{"version: v9.9", "go: go1.99", "commit: abc123def456", "uptime: "} {
		found := false
		for _, l := range lines {
			if strings.HasPrefix(l, want) {
				found = true
			}
		}
		if !found {
			t.Errorf("healthz body is missing %q:\n%s", want, body.String())
		}
	}
}

// syncBuffer guards the log buffer: the handler goroutine writes it
// while the test reads.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func TestSlowQueryLog(t *testing.T) {
	var logs syncBuffer
	_, ts := newTestServer(t, Config{
		Source:     chainSrc,
		FlightSize: 16,
		SlowQuery:  time.Nanosecond, // every request is "slow"
		Logger:     slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	_, out := postQuery(t, ts.URL, `{"goal": "a(X,Y)"}`)
	traceID, _ := out["trace"].(string)
	waitFor(t, "slow-query log line", func() bool {
		return strings.Contains(logs.String(), "slow query")
	})
	line := logs.String()
	for _, want := range []string{"slow query", traceID, `"verb":"query"`, `"detail":"a(X,Y)"`, `"spans":[`, `"name":"eval"`, "staged"} {
		if !strings.Contains(line, want) {
			t.Errorf("slow-query log is missing %q:\n%s", want, line)
		}
	}
}

// TestChainRewriteObservable: a compile that applied the chain rewrite
// says so on its compile span (flight recorder and slow-query log) and on
// the query log line, whose goal stays the optimizer's; a goal served as
// optimized carries no such attr.
func TestChainRewriteObservable(t *testing.T) {
	var logs syncBuffer
	s, ts := newTestServer(t, Config{
		Source:     chainSrc,
		FlightSize: 16,
		SlowQuery:  time.Nanosecond,
		Logger:     slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	compileAttr := func(tid tracespan.TraceID) string {
		t.Helper()
		req := s.FlightRecorder().Find(tid.String())
		if req == nil {
			t.Fatal("flight recorder has no entry for the query")
		}
		for _, sp := range req.Spans {
			for _, a := range sp.Attrs {
				if sp.Name == "compile" && a.Key == "rewrite" {
					return a.Value
				}
			}
		}
		return ""
	}
	_, bound, _ := postTraced(t, ts.URL, `{"goal": "a(1,Y)"}`)
	if got := compileAttr(bound); got != "chain" {
		t.Errorf("a(1,Y) compile span rewrite = %q, want chain", got)
	}
	_, free, _ := postTraced(t, ts.URL, `{"goal": "a(X,Y)"}`)
	if got := compileAttr(free); got != "" {
		t.Errorf("a(X,Y) compile span rewrite = %q, want none", got)
	}
	waitFor(t, "two slow-query log lines", func() bool {
		return strings.Count(logs.String(), "slow query") == 2
	})
	var queryLines, slowRewrites int
	for _, line := range strings.Split(logs.String(), "\n") {
		switch {
		case strings.Contains(line, `"msg":"query"`) && strings.Contains(line, `(1,Y)"`):
			queryLines++
			if !strings.Contains(line, `"rewrite":"chain"`) {
				t.Errorf("query log line lacks rewrite=chain: %s", line)
			}
			if strings.Contains(line, `"goal":"a'`) {
				t.Errorf("query log line names the rewrite's answer atom, not the goal: %s", line)
			}
		case strings.Contains(line, `"msg":"query"`):
			queryLines++
			if !strings.Contains(line, `"rewrite":""`) {
				t.Errorf("unrewritten query log line: %s", line)
			}
		case strings.Contains(line, "slow query") && strings.Contains(line, "rewrite=chain"):
			slowRewrites++
		}
	}
	if queryLines != 2 || slowRewrites != 1 {
		t.Errorf("%d query lines and %d slow-query lines with rewrite=chain, want 2 and 1:\n%s",
			queryLines, slowRewrites, logs.String())
	}
}

func TestSlowQueryLogQuietUnderThreshold(t *testing.T) {
	var logs syncBuffer
	_, ts := newTestServer(t, Config{
		Source:     chainSrc,
		FlightSize: 16,
		SlowQuery:  time.Hour,
		Logger:     slog.New(slog.NewJSONHandler(&logs, nil)),
	})
	postQuery(t, ts.URL, `{"goal": "a(X,Y)"}`)
	if strings.Contains(logs.String(), "slow query") {
		t.Error("fast query emitted a slow-query log line")
	}
}

// TestClientRetryReusesTraceID is the retry-tracing contract: a retried
// call (postRetrying) holds one trace id across attempts, and the client
// sends a fresh span id per attempt — so the server can correlate retries
// without ever recording a duplicate (trace, span) pair.
func TestClientRetryReusesTraceID(t *testing.T) {
	var mu sync.Mutex
	var parents []string
	attempts := 0
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		parents = append(parents, r.Header.Get("traceparent"))
		attempts++
		n := attempts
		mu.Unlock()
		if n < 3 {
			w.WriteHeader(http.StatusServiceUnavailable)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		w.Write([]byte(`{"request":"q1","count":6,"cached":false,"stats":{},"elapsed_seconds":0}`))
	}))
	defer ts.Close()

	res, err := queryRetrying(context.Background(), NewClient(ts.URL), "a(X,Y)", 0)
	if err != nil || res.Status != http.StatusOK {
		t.Fatalf("query: %v, status %d", err, res.Status)
	}

	mu.Lock()
	defer mu.Unlock()
	if len(parents) != 3 {
		t.Fatalf("server saw %d attempts, want 3", len(parents))
	}
	spanIDs := map[string]bool{}
	for i, h := range parents {
		tid, sid, ok := tracespan.ParseTraceparent(h)
		if !ok {
			t.Fatalf("attempt %d sent unparseable traceparent %q", i+1, h)
		}
		if tid.String() != res.TraceID {
			t.Errorf("attempt %d trace id %s, want the call's %s", i+1, tid, res.TraceID)
		}
		if spanIDs[sid.String()] {
			t.Errorf("attempt %d reused span id %s", i+1, sid)
		}
		spanIDs[sid.String()] = true
	}
}

// TestRetriedMutationDistinctAttempts drives a retried mutation against
// a real server whose first response is discarded (ack lost): the
// recorder must show one entry per server-side attempt, same trace id,
// never a duplicated (trace, span) pair.
func TestRetriedMutationDistinctAttempts(t *testing.T) {
	s, err := New(Config{Source: chainSrc, FlightSize: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	inner := s.Handler()
	var n int32
	var mu sync.Mutex
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		mu.Lock()
		n++
		first := n == 1
		mu.Unlock()
		if first {
			// The handler runs (the write is applied) but the ack is lost.
			inner.ServeHTTP(discardWriter{h: http.Header{}}, r)
			panic(http.ErrAbortHandler)
		}
		inner.ServeHTTP(w, r)
	}))
	defer ts.Close()

	res, err := mutateRetrying(context.Background(), NewClient(ts.URL), "update", []string{"p(7,8)"}, time.Second)
	if err != nil || res.Status != http.StatusOK {
		t.Fatalf("mutate: %v, status %d", err, res.Status)
	}

	entries := 0
	seen := map[[2]string]bool{}
	for _, req := range s.FlightRecorder().Snapshot(0) {
		key := [2]string{req.TraceID, req.SpanID}
		if seen[key] {
			t.Errorf("duplicate (trace, span) pair %v in the recorder", key)
		}
		seen[key] = true
		if req.TraceID == res.TraceID {
			entries++
		}
	}
	if entries != 2 {
		t.Errorf("recorder has %d entries for the retried call's trace, want 2 (one per attempt)", entries)
	}
}
