// Package tracespan is the end-to-end request tracer behind `existdlog
// serve`: a hand-rolled, allocation-lean span model threaded through
// the whole request lifecycle — client send, W3C traceparent
// propagation, admission queue wait, compiled-program cache lookup,
// per-pass evaluation, and (for mutations) the store's
// queue/coalesce/maintain/WAL-append/fsync/install/ack pipeline.
//
// Completed request traces land in a fixed-size lock-free ring buffer
// (the flight recorder, ring.go) served at /debug/requests (http.go) in
// the spirit of x/net/trace. Sampling is head rate 1.0 — every request
// is traced when a recorder is configured — and the entire span hot
// path is nil-receiver no-ops when it is not: a server without a
// recorder performs zero tracing allocations (pinned by
// TestSpanPathDisabledZeroAllocs), which is what lets tracing stay
// always-on in the config without taxing the measured serve path.
//
// Clocking: spans are offsets from the request's start on the real
// monotonic clock (time.Now), deliberately independent of the server's
// injectable metrics clock — tracing must not perturb the
// byte-deterministic golden /metrics scrape, and span math must never
// see a stepped fake.
package tracespan

import (
	"crypto/rand"
	"encoding/hex"
	"fmt"
	"time"
)

// TraceID identifies one logical request end to end: the client
// generates it once per call and every retry attempt, every server-side
// span tree, and every WAL record it touches carries the same id.
type TraceID [16]byte

// SpanID identifies one attempt/span within a trace: a retrying client
// reuses the TraceID but generates a fresh SpanID per attempt, which is
// how the flight recorder distinguishes attempts without ever
// duplicating an entry.
type SpanID [8]byte

// IsZero reports an unset id.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// IsZero reports an unset id.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// String renders the id as 32 lowercase hex digits (the W3C form).
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// String renders the id as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// NewTraceID returns a random trace id. The zero id (no entropy
// available) is the documented "untraced" sentinel.
func NewTraceID() TraceID {
	var t TraceID
	if _, err := rand.Read(t[:]); err != nil {
		return TraceID{}
	}
	return t
}

// NewSpanID returns a random span id.
func NewSpanID() SpanID {
	var s SpanID
	if _, err := rand.Read(s[:]); err != nil {
		return SpanID{}
	}
	return s
}

// ParseTraceID parses 32 hex digits.
func ParseTraceID(s string) (TraceID, bool) {
	var t TraceID
	if len(s) != 32 {
		return t, false
	}
	if _, err := hex.Decode(t[:], []byte(s)); err != nil {
		return TraceID{}, false
	}
	return t, !t.IsZero()
}

// Traceparent renders the W3C trace-context header for a sampled
// request: version 00, 16-byte trace id, 8-byte parent span id, flags
// 01 (sampled — head sampling rate is always 1.0 here).
func Traceparent(t TraceID, s SpanID) string {
	return "00-" + t.String() + "-" + s.String() + "-01"
}

// ParseTraceparent decodes a W3C traceparent header. Unknown versions
// are accepted as long as the field shape matches (per the spec's
// forward-compatibility rule); a zero trace or span id is invalid.
func ParseTraceparent(h string) (TraceID, SpanID, bool) {
	// 00-{32 hex}-{16 hex}-{2 hex}
	if len(h) < 55 || h[2] != '-' || h[35] != '-' || h[52] != '-' {
		return TraceID{}, SpanID{}, false
	}
	if h[0] == 'f' && h[1] == 'f' {
		return TraceID{}, SpanID{}, false // version 0xff is forbidden
	}
	t, ok := ParseTraceID(h[3:35])
	if !ok {
		return TraceID{}, SpanID{}, false
	}
	var s SpanID
	if _, err := hex.Decode(s[:], []byte(h[36:52])); err != nil || s.IsZero() {
		return TraceID{}, SpanID{}, false
	}
	return t, s, true
}

// Attr is one key/value annotation on a span (cache hit/miss, pass fact
// counts, WAL record counts, ...). Values are pre-rendered strings so a
// recorded trace is immutable and trivially serializable.
type Attr struct {
	Key   string `json:"key"`
	Value string `json:"value"`
}

// Span is one timed stage of a request, as an offset range from the
// request's start. Parent is the index of the enclosing span in the
// request's Spans slice, or RootSpan for a top-level stage — top-level
// stages are disjoint and together cover (nearly) the whole request,
// which is what lets the slow-query log and /debug/requests attribute a
// request's latency stage by stage.
type Span struct {
	Name   string        `json:"name"`
	Parent int           `json:"parent"`
	Start  time.Duration `json:"start_ns"`
	End    time.Duration `json:"end_ns"`
	Attrs  []Attr        `json:"attrs,omitempty"`
}

// RootSpan is the Parent value of a top-level stage span (the request
// itself is the implicit root).
const RootSpan = -1

// Request is one completed request's span tree — the flight recorder's
// unit of storage and the JSON shape /debug/requests serves.
type Request struct {
	// TraceID is the request's 32-hex trace id; ParentSpan is the
	// client's attempt span id from the incoming traceparent ("" when
	// the server originated the trace), and SpanID is this server-side
	// root span's own id.
	TraceID    string `json:"trace_id"`
	SpanID     string `json:"span_id"`
	ParentSpan string `json:"parent_span_id,omitempty"`
	// ID is the server's request id (q17, m4) — the same id the request
	// log, error bodies, and engine cancellation causes carry.
	ID string `json:"request"`
	// Verb is the endpoint class: "query", "update", "retract", or a
	// client-side verb like "client.query".
	Verb string `json:"verb"`
	// Detail is the goal (queries) or fact count (mutations).
	Detail  string `json:"detail,omitempty"`
	Status  int    `json:"status"`
	Outcome string `json:"outcome"`
	// Start is the wall-clock arrival; Duration the request's total
	// wall time; Spans the stage breakdown, in creation order.
	Start    time.Time     `json:"start"`
	Duration time.Duration `json:"duration_ns"`
	Spans    []Span        `json:"spans"`
}

// maxSpans bounds one request's span count: a deeply recursive query
// can run hundreds of passes, and the recorder must stay fixed-cost.
// Spans past the cap are dropped and counted in a "truncated" attr on
// the last kept span.
const maxSpans = 96

// childSpanCap is where child spans stop being recorded, leaving
// headroom below maxSpans for later top-level stages: a pass-heavy
// evaluation must never crowd out the respond/store stage spans, or the
// stage sum would stop covering the request's latency.
const childSpanCap = maxSpans - 8

// StageSum sums the durations of the top-level stage spans; it should
// agree with Duration within a few percent, or a stage went
// unaccounted.
func (r *Request) StageSum() time.Duration {
	var sum time.Duration
	for i := range r.Spans {
		if r.Spans[i].Parent == RootSpan {
			sum += r.Spans[i].End - r.Spans[i].Start
		}
	}
	return sum
}

// StageCoverage is StageSum over Duration (0 for an instant request).
func (r *Request) StageCoverage() float64 {
	if r.Duration <= 0 {
		return 0
	}
	return float64(r.StageSum()) / float64(r.Duration)
}

// Validate checks a recorded trace's structural invariants — the shape
// the tracing and chaos suites assert on recorded span trees: a
// well-formed trace id, monotone span ranges inside the request
// duration, and parent indices that point backwards to real spans.
func (r *Request) Validate() error {
	if _, ok := ParseTraceID(r.TraceID); !ok {
		return fmt.Errorf("tracespan: bad trace id %q", r.TraceID)
	}
	if r.Verb == "" {
		return fmt.Errorf("tracespan: trace %s has no verb", r.TraceID)
	}
	if r.Duration < 0 {
		return fmt.Errorf("tracespan: trace %s has negative duration", r.TraceID)
	}
	// Span ends may overshoot Duration by a scheduling sliver (the
	// finish timestamp is taken after the last End); allow 10%+1ms.
	limit := r.Duration + r.Duration/10 + time.Millisecond
	for i := range r.Spans {
		sp := &r.Spans[i]
		if sp.Name == "" {
			return fmt.Errorf("tracespan: trace %s span %d has no name", r.TraceID, i)
		}
		if sp.Start < 0 || sp.End < sp.Start {
			return fmt.Errorf("tracespan: trace %s span %q range [%v,%v] is not monotone",
				r.TraceID, sp.Name, sp.Start, sp.End)
		}
		if sp.End > limit {
			return fmt.Errorf("tracespan: trace %s span %q ends at %v, past the request's %v",
				r.TraceID, sp.Name, sp.End, r.Duration)
		}
		if sp.Parent != RootSpan && (sp.Parent < 0 || sp.Parent >= i) {
			return fmt.Errorf("tracespan: trace %s span %q parent %d does not point at an earlier span",
				r.TraceID, sp.Name, sp.Parent)
		}
	}
	return nil
}

// Builder accumulates one in-flight request's spans. A Builder is owned
// by the request's goroutine — no locking — and a nil *Builder is the
// disabled path: every method is a nil-receiver no-op, so call sites
// need no recorder checks and the disabled hot path costs one branch.
type Builder struct {
	rec   *Recorder
	req   Request
	start time.Time
	drops int
}

// Begin opens a trace for one request. A nil Recorder returns a nil
// Builder (the zero-cost disabled path). parent is the client's span id
// from traceparent (zero when the server originates the trace).
func (r *Recorder) Begin(trace TraceID, parent SpanID, id, verb, detail string) *Builder {
	if r == nil {
		return nil
	}
	b := &Builder{rec: r, start: time.Now()}
	b.req = Request{
		TraceID: trace.String(),
		SpanID:  NewSpanID().String(),
		ID:      id,
		Verb:    verb,
		Detail:  detail,
		Start:   b.start,
		Spans:   make([]Span, 0, 12),
	}
	if !parent.IsZero() {
		b.req.ParentSpan = parent.String()
	}
	return b
}

// TraceID returns the trace id ("" on the nil builder).
func (b *Builder) TraceID() string {
	if b == nil {
		return ""
	}
	return b.req.TraceID
}

// SetDetail replaces the request's detail once known (the goal is only
// parsed after the trace opens).
func (b *Builder) SetDetail(d string) {
	if b == nil {
		return
	}
	b.req.Detail = d
}

// since returns the offset of now from the request start.
func (b *Builder) since() time.Duration { return time.Since(b.start) }

// push appends a span, enforcing the cap (the lower childSpanCap for
// non-root spans). Returns the span's index or RootSpan when dropped.
func (b *Builder) push(sp Span) int {
	limit := maxSpans
	if sp.Parent != RootSpan {
		limit = childSpanCap
	}
	if len(b.req.Spans) >= limit {
		b.drops++
		return RootSpan
	}
	b.req.Spans = append(b.req.Spans, sp)
	return len(b.req.Spans) - 1
}

// Start opens a top-level stage span and returns its index.
func (b *Builder) Start(name string) int {
	if b == nil {
		return RootSpan
	}
	return b.push(Span{Name: name, Parent: RootSpan, Start: b.since(), End: -1})
}

// StartChild opens a span under parent (an index returned by an earlier
// Start/StartChild/Add) and returns its index.
func (b *Builder) StartChild(name string, parent int) int {
	if b == nil {
		return RootSpan
	}
	return b.push(Span{Name: name, Parent: parent, Start: b.since(), End: -1})
}

// End closes the span at index i (no-op for RootSpan or out-of-range,
// so dropped spans and the nil builder compose silently).
func (b *Builder) End(i int) {
	if b == nil || i < 0 || i >= len(b.req.Spans) {
		return
	}
	if b.req.Spans[i].End < 0 {
		b.req.Spans[i].End = b.since()
	}
}

// Add records a fully-formed span with explicit offsets — the path for
// stages measured elsewhere (engine pass times, the store applier's
// batch timings) that are grafted into this request's tree.
func (b *Builder) Add(name string, parent int, start, end time.Duration) int {
	if b == nil {
		return RootSpan
	}
	if start < 0 {
		start = 0
	}
	if end < start {
		end = start
	}
	return b.push(Span{Name: name, Parent: parent, Start: start, End: end})
}

// SpanStart returns span i's start offset (0 for RootSpan/nil): callers
// grafting external timings use it to anchor child offsets.
func (b *Builder) SpanStart(i int) time.Duration {
	if b == nil || i < 0 || i >= len(b.req.Spans) {
		return 0
	}
	return b.req.Spans[i].Start
}

// Attr annotates span i (no-op on nil/RootSpan).
func (b *Builder) Attr(i int, key, value string) {
	if b == nil || i < 0 || i >= len(b.req.Spans) {
		return
	}
	b.req.Spans[i].Attrs = append(b.req.Spans[i].Attrs, Attr{Key: key, Value: value})
}

// Offset returns the current offset from the request start (0 on nil):
// the anchor for grafting externally-measured sub-stages.
func (b *Builder) Offset() time.Duration {
	if b == nil {
		return 0
	}
	return b.since()
}

// OffsetOf converts an absolute timestamp (from the same monotonic
// clock domain, i.e. time.Now) to an offset in this request.
func (b *Builder) OffsetOf(t time.Time) time.Duration {
	if b == nil || t.IsZero() {
		return 0
	}
	return t.Sub(b.start)
}

// Finish seals the trace — closing any still-open spans at the final
// offset — and publishes it to the recorder. It returns the completed
// Request so the caller can feed the slow-query log, or nil on the nil
// builder. A Builder must not be used after Finish.
func (b *Builder) Finish(status int, outcome string) *Request {
	if b == nil {
		return nil
	}
	d := b.since()
	b.req.Duration = d
	b.req.Status = status
	b.req.Outcome = outcome
	for i := range b.req.Spans {
		if b.req.Spans[i].End < 0 {
			b.req.Spans[i].End = d
		}
	}
	if b.drops > 0 && len(b.req.Spans) > 0 {
		last := len(b.req.Spans) - 1
		b.req.Spans[last].Attrs = append(b.req.Spans[last].Attrs,
			Attr{Key: "truncated", Value: fmt.Sprintf("%d spans dropped", b.drops)})
	}
	req := &b.req
	b.rec.put(req)
	return req
}
