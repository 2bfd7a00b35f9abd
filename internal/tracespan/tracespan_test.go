package tracespan

import (
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"strings"
	"testing"
	"time"
)

func TestTraceparentRoundTrip(t *testing.T) {
	tid := NewTraceID()
	sid := NewSpanID()
	h := Traceparent(tid, sid)
	if len(h) != 55 {
		t.Fatalf("traceparent %q has length %d, want 55", h, len(h))
	}
	gotT, gotS, ok := ParseTraceparent(h)
	if !ok {
		t.Fatalf("ParseTraceparent rejected %q", h)
	}
	if gotT != tid || gotS != sid {
		t.Errorf("round trip: got (%s,%s), want (%s,%s)", gotT, gotS, tid, sid)
	}
}

func TestTraceparentRejects(t *testing.T) {
	tid, sid := NewTraceID(), NewSpanID()
	bad := []string{
		"",
		"00",
		"00-" + tid.String() + "-" + sid.String(),                    // missing flags
		"00-" + tid.String() + "-" + sid.String() + "01",             // missing last dash
		"00-" + strings.Repeat("0", 32) + "-" + sid.String() + "-01", // zero trace id
		"00-" + tid.String() + "-0000000000000000-01",                // zero span id
		"ff-" + tid.String() + "-" + sid.String() + "-01",            // forbidden version
		"00-" + strings.Repeat("zz", 16) + "-" + sid.String() + "-01",
	}
	for _, h := range bad {
		if _, _, ok := ParseTraceparent(h); ok {
			t.Errorf("ParseTraceparent accepted %q", h)
		}
	}
	// Unknown-but-well-formed versions are accepted (forward compat),
	// including ones with trailing future fields.
	if _, _, ok := ParseTraceparent("01-" + tid.String() + "-" + sid.String() + "-01-extra"); !ok {
		t.Error("ParseTraceparent rejected a forward-compatible future version")
	}
}

func TestRingWrapNewestFirst(t *testing.T) {
	rec := NewRecorder(16)
	if rec.Cap() != 16 {
		t.Fatalf("Cap() = %d, want 16", rec.Cap())
	}
	for i := 0; i < 40; i++ {
		tb := rec.Begin(NewTraceID(), SpanID{}, fmt.Sprintf("q%d", i), "query", "")
		tb.Finish(200, "ok")
	}
	snap := rec.Snapshot(0)
	if len(snap) != 16 {
		t.Fatalf("Snapshot after wrap has %d entries, want 16", len(snap))
	}
	for i, req := range snap {
		want := fmt.Sprintf("q%d", 39-i)
		if req.ID != want {
			t.Errorf("Snapshot[%d] = %s, want %s (newest first)", i, req.ID, want)
		}
	}
	if got := rec.Snapshot(3); len(got) != 3 || got[0].ID != "q39" {
		t.Errorf("Snapshot(3) = %d entries starting %s, want 3 starting q39", len(got), got[0].ID)
	}
}

func TestRingPartialFill(t *testing.T) {
	rec := NewRecorder(16)
	for i := 0; i < 5; i++ {
		rec.Begin(NewTraceID(), SpanID{}, fmt.Sprintf("q%d", i), "query", "").Finish(200, "ok")
	}
	snap := rec.Snapshot(0)
	if len(snap) != 5 {
		t.Fatalf("Snapshot of part-filled ring has %d entries, want 5", len(snap))
	}
	if snap[0].ID != "q4" || snap[4].ID != "q0" {
		t.Errorf("order = %s..%s, want q4..q0", snap[0].ID, snap[4].ID)
	}
}

func TestFindNewestWins(t *testing.T) {
	rec := NewRecorder(16)
	tid := NewTraceID()
	rec.Begin(tid, SpanID{}, "m1", "update", "").Finish(503, "error")
	rec.Begin(tid, SpanID{}, "m2", "update", "").Finish(200, "ok")
	got := rec.Find(tid.String())
	if got == nil || got.ID != "m2" {
		t.Fatalf("Find returned %+v, want the newest entry m2", got)
	}
	if rec.Find("feedfacefeedfacefeedfacefeedface") != nil {
		t.Error("Find returned an entry for an unknown trace id")
	}
}

func TestBuilderSpans(t *testing.T) {
	rec := NewRecorder(16)
	tid := NewTraceID()
	parent := NewSpanID()
	tb := rec.Begin(tid, parent, "q1", "query", "")
	tb.SetDetail("a(X,Y)")
	s1 := tb.Start("decode")
	tb.End(s1)
	s2 := tb.Start("eval")
	c1 := tb.StartChild("pass 1", s2)
	tb.Attr(c1, "facts", "6")
	tb.End(c1)
	// s2 left open: Finish must seal it at the final offset.
	req := tb.Finish(200, "ok")
	if req == nil {
		t.Fatal("Finish returned nil on a live builder")
	}
	if req.TraceID != tid.String() || req.ParentSpan != parent.String() {
		t.Errorf("ids: trace %s parent %s, want %s/%s", req.TraceID, req.ParentSpan, tid, parent)
	}
	if req.Detail != "a(X,Y)" || req.Verb != "query" || req.Outcome != "ok" {
		t.Errorf("req = %+v", req)
	}
	if len(req.Spans) != 3 {
		t.Fatalf("got %d spans, want 3", len(req.Spans))
	}
	if req.Spans[2].Parent != s2 || req.Spans[2].Name != "pass 1" {
		t.Errorf("child span = %+v, want parent %d", req.Spans[2], s2)
	}
	if req.Spans[1].End != req.Duration {
		t.Errorf("open span sealed at %v, want the request duration %v", req.Spans[1].End, req.Duration)
	}
	if len(req.Spans[2].Attrs) != 1 || req.Spans[2].Attrs[0].Key != "facts" {
		t.Errorf("attrs = %+v", req.Spans[2].Attrs)
	}
	if err := req.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
	if got := rec.Find(tid.String()); got != req {
		t.Error("Finish did not publish the request to the recorder")
	}
}

func TestBuilderSpanCap(t *testing.T) {
	rec := NewRecorder(16)
	tb := rec.Begin(NewTraceID(), SpanID{}, "q1", "query", "")
	for i := 0; i < maxSpans+20; i++ {
		tb.End(tb.Start("s"))
	}
	req := tb.Finish(200, "ok")
	if len(req.Spans) != maxSpans {
		t.Fatalf("got %d spans, want the cap %d", len(req.Spans), maxSpans)
	}
	last := req.Spans[len(req.Spans)-1]
	if len(last.Attrs) == 0 || last.Attrs[len(last.Attrs)-1].Key != "truncated" {
		t.Errorf("last span is not marked truncated: %+v", last)
	}
	if err := req.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

// TestChildTruncationKeepsStages: a pass-heavy evaluation grafting
// hundreds of child spans must not crowd out the later top-level stage
// spans — otherwise the stage sum stops covering the request's latency
// on recursive queries.
func TestChildTruncationKeepsStages(t *testing.T) {
	rec := NewRecorder(16)
	tb := rec.Begin(NewTraceID(), SpanID{}, "q1", "query", "tc(X,Y)")
	tb.End(tb.Start("decode"))
	eval := tb.Start("eval")
	for i := 0; i < 500; i++ {
		tb.End(tb.StartChild("pass", eval))
	}
	tb.End(eval)
	resp := tb.Start("respond")
	if resp == RootSpan {
		t.Fatal("top-level respond span was dropped by child truncation")
	}
	tb.End(resp)
	req := tb.Finish(200, "ok")
	if len(req.Spans) >= maxSpans {
		t.Fatalf("got %d spans, want headroom below the cap %d", len(req.Spans), maxSpans)
	}
	var tops []string
	for _, sp := range req.Spans {
		if sp.Parent == RootSpan {
			tops = append(tops, sp.Name)
		}
	}
	if got := strings.Join(tops, ","); got != "decode,eval,respond" {
		t.Errorf("top-level stages = %s, want decode,eval,respond", got)
	}
	last := req.Spans[len(req.Spans)-1]
	found := false
	for _, a := range last.Attrs {
		if a.Key == "truncated" {
			found = true
		}
	}
	if !found {
		t.Errorf("truncation not recorded on the last span: %+v", last)
	}
	if err := req.Validate(); err != nil {
		t.Errorf("Validate: %v", err)
	}
}

func TestValidateRejects(t *testing.T) {
	base := func() *Request {
		return &Request{
			TraceID:  NewTraceID().String(),
			Verb:     "query",
			Duration: 10 * time.Millisecond,
			Spans: []Span{
				{Name: "a", Parent: RootSpan, Start: 0, End: 4 * time.Millisecond},
				{Name: "b", Parent: 0, Start: time.Millisecond, End: 2 * time.Millisecond},
			},
		}
	}
	if err := base().Validate(); err != nil {
		t.Fatalf("valid request rejected: %v", err)
	}
	for name, mutate := range map[string]func(*Request){
		"bad trace id":     func(r *Request) { r.TraceID = "xyz" },
		"zero trace id":    func(r *Request) { r.TraceID = strings.Repeat("0", 32) },
		"no verb":          func(r *Request) { r.Verb = "" },
		"unnamed span":     func(r *Request) { r.Spans[0].Name = "" },
		"negative start":   func(r *Request) { r.Spans[0].Start = -1 },
		"end before start": func(r *Request) { r.Spans[1].End = 0 },
		"end past request": func(r *Request) { r.Spans[1].End = time.Second },
		"forward parent":   func(r *Request) { r.Spans[0].Parent = 1 },
		"self parent":      func(r *Request) { r.Spans[1].Parent = 1 },
	} {
		r := base()
		mutate(r)
		if err := r.Validate(); err == nil {
			t.Errorf("%s: Validate accepted the corrupt request", name)
		}
	}
}

// TestSpanPathDisabledZeroAllocs pins the disabled hot path: with no
// recorder configured, the whole per-request span choreography must not
// allocate at all — this is what keeps tracing always-on in the config
// without taxing the measured serve path.
func TestSpanPathDisabledZeroAllocs(t *testing.T) {
	var rec *Recorder
	allocs := testing.AllocsPerRun(200, func() {
		tb := rec.Begin(TraceID{}, SpanID{}, "q1", "query", "")
		tb.SetDetail("a(X,Y)")
		s := tb.Start("decode")
		tb.End(s)
		e := tb.Start("eval")
		c := tb.StartChild("pass 1", e)
		tb.Attr(c, "facts", "6")
		tb.End(c)
		tb.Add("grafted", e, 0, 0)
		_ = tb.Offset()
		_ = tb.OffsetOf(time.Time{})
		_ = tb.TraceID()
		tb.End(e)
		if tb.Finish(200, "ok") != nil {
			t.Fatal("nil builder finished a request")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled span path allocates %.1f/op, want 0", allocs)
	}
}

func TestFlightRecorderHandler(t *testing.T) {
	rec := NewRecorder(16)
	for i := 0; i < 3; i++ {
		tb := rec.Begin(NewTraceID(), SpanID{}, fmt.Sprintf("q%d", i), "query", "a(X,Y)")
		tb.End(tb.Start("eval"))
		tb.Finish(200, "ok")
	}
	tb := rec.Begin(NewTraceID(), SpanID{}, "m1", "update", "2 facts")
	tb.Finish(503, "rejected:degraded")

	get := func(path string) *httptest.ResponseRecorder {
		w := httptest.NewRecorder()
		rec.ServeHTTP(w, httptest.NewRequest("GET", path, nil))
		return w
	}

	var out struct {
		Capacity int        `json:"capacity"`
		Count    int        `json:"count"`
		Requests []*Request `json:"requests"`
	}
	w := get("/debug/requests?json=1")
	if w.Code != 200 {
		t.Fatalf("status %d", w.Code)
	}
	if err := json.Unmarshal(w.Body.Bytes(), &out); err != nil {
		t.Fatalf("json: %v\n%s", err, w.Body.String())
	}
	if out.Capacity != 16 || len(out.Requests) != 4 {
		t.Fatalf("capacity %d, %d requests; want 16 and 4", out.Capacity, len(out.Requests))
	}
	if out.Requests[0].ID != "m1" {
		t.Errorf("first entry %s, want the newest m1", out.Requests[0].ID)
	}

	w = get("/debug/requests?json=1&verb=update")
	out.Requests = nil
	json.Unmarshal(w.Body.Bytes(), &out)
	if len(out.Requests) != 1 || out.Requests[0].Verb != "update" {
		t.Errorf("verb filter returned %d entries", len(out.Requests))
	}

	w = get("/debug/requests?json=1&status=503")
	out.Requests = nil
	json.Unmarshal(w.Body.Bytes(), &out)
	if len(out.Requests) != 1 || out.Requests[0].Status != 503 {
		t.Errorf("status filter returned %d entries", len(out.Requests))
	}

	w = get("/debug/requests?json=1&min=1h")
	out.Requests = nil
	json.Unmarshal(w.Body.Bytes(), &out)
	if len(out.Requests) != 0 {
		t.Errorf("min-duration filter returned %d entries, want 0", len(out.Requests))
	}

	if w := get("/debug/requests"); !strings.Contains(w.Body.String(), "m1") ||
		!strings.Contains(w.Header().Get("Content-Type"), "text/html") {
		t.Error("HTML view is missing entries or the content type")
	}

	var disabled *Recorder
	w = httptest.NewRecorder()
	disabled.ServeHTTP(w, httptest.NewRequest("GET", "/debug/requests", nil))
	if w.Code != 404 {
		t.Errorf("disabled recorder served %d, want 404", w.Code)
	}
}
