package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	mrand "math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"time"

	"existdlog/internal/obs"
	"existdlog/internal/tracespan"
)

// Client is the HTTP client for a served instance, used by the repl's
// :add/:retract and the server's own tests. It speaks the same wire
// format the handlers above decode, and it reuses the server's
// cancellation plumbing from the other side: every call threads its
// context into the request, so cancelling the context tears the
// connection down and the server aborts the evaluation into a sound
// partial result.
//
// A zero-configured Client is deliberately non-resilient — one attempt
// per call, no breaker — because a caller measuring the server needs to
// observe rejections and failures, not paper over them. Production-style
// callers use NewResilientClient (or set Retry/Breaker), which adds:
//
//   - capped, jittered exponential backoff on transport errors and
//     retryable statuses (429/502/503/504), honoring the server's
//     Retry-After hint;
//   - an Idempotency-Key header on every mutation, generated once per
//     call and reused across attempts, so a retried ack-lost write is
//     applied exactly once by the store's WAL-backed dedup window;
//   - a half-open circuit breaker that fails fast while the server is
//     persistently down instead of feeding a retry storm.
type Client struct {
	// Base is the served instance's base URL, e.g. "http://127.0.0.1:8347".
	Base string
	// HTTP is the underlying client; nil uses a shared client with an
	// overall request timeout (never http.DefaultClient, whose missing
	// timeout turns a hung server into a hung caller).
	HTTP *http.Client
	// Retry enables retries; nil means a single attempt per call.
	Retry *RetryPolicy
	// Breaker enables the circuit breaker; nil means none.
	Breaker *BreakerPolicy
	// Registry receives retry and breaker metrics; nil discards them.
	Registry *obs.Registry
	// Recorder, when set, records one client-side trace per call (verb
	// "client.<path>") with one span per attempt and backoff sleep —
	// the caller's view of the same trace id the server records. Nil
	// disables client-side spans at zero cost.
	Recorder *tracespan.Recorder

	brkOnce sync.Once
	brk     *breaker
}

// RetryPolicy shapes the retry loop: capped exponential backoff with
// full jitter (each sleep is uniform in (0, cap] of the doubling
// schedule), so synchronized clients desynchronize instead of
// retrying in lockstep.
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (0 = 4).
	MaxAttempts int
	// BaseDelay seeds the backoff schedule (0 = 50ms).
	BaseDelay time.Duration
	// MaxDelay caps a single backoff sleep (0 = 2s). A server
	// Retry-After hint overrides the schedule but is still capped at
	// 4× MaxDelay.
	MaxDelay time.Duration
}

func (p *RetryPolicy) attempts() int {
	if p.MaxAttempts <= 0 {
		return 4
	}
	return p.MaxAttempts
}

func (p *RetryPolicy) base() time.Duration {
	if p.BaseDelay <= 0 {
		return 50 * time.Millisecond
	}
	return p.BaseDelay
}

func (p *RetryPolicy) cap() time.Duration {
	if p.MaxDelay <= 0 {
		return 2 * time.Second
	}
	return p.MaxDelay
}

// backoff returns the sleep before retry number n (n = 1 is the first
// retry): full jitter over min(cap, base·2ⁿ⁻¹), or the server's
// Retry-After hint when it gave one.
func (p *RetryPolicy) backoff(n int, retryAfter time.Duration) time.Duration {
	if retryAfter > 0 {
		if max := 4 * p.cap(); retryAfter > max {
			return max
		}
		return retryAfter
	}
	d := p.base() << (n - 1)
	if d <= 0 || d > p.cap() {
		d = p.cap()
	}
	return time.Duration(mrand.Int63n(int64(d))) + 1
}

// BreakerPolicy shapes the circuit breaker.
type BreakerPolicy struct {
	// Threshold is the consecutive-failure count that opens the
	// circuit (0 = 8).
	Threshold int
	// Cooldown is how long the circuit stays open before a single
	// half-open trial request is allowed through (0 = 1s).
	Cooldown time.Duration
}

func (p *BreakerPolicy) threshold() int {
	if p.Threshold <= 0 {
		return 8
	}
	return p.Threshold
}

func (p *BreakerPolicy) cooldown() time.Duration {
	if p.Cooldown <= 0 {
		return time.Second
	}
	return p.Cooldown
}

// ErrCircuitOpen is returned (wrapped) while the breaker is open: the
// server has failed persistently and the cooldown has not elapsed, so
// the client fails fast instead of adding load.
var ErrCircuitOpen = errors.New("circuit breaker is open")

// Breaker states, exported through the breaker-state gauge.
const (
	breakerClosed   = 0
	breakerHalfOpen = 1
	breakerOpen     = 2
)

// breaker is a consecutive-failure circuit breaker. Closed passes
// everything; Threshold consecutive failures open it; after Cooldown
// one trial request goes through half-open — success closes the
// circuit, failure reopens it for another cooldown.
type breaker struct {
	policy *BreakerPolicy
	reg    *obs.Registry
	now    func() time.Time

	mu       sync.Mutex
	state    int
	fails    int
	openedAt time.Time
	trial    bool // a half-open trial is in flight
}

func (b *breaker) setState(s int) {
	b.state = s
	if b.reg != nil {
		b.reg.SetBreakerState(int64(s))
	}
}

// allow reports whether a request may proceed, transitioning
// open→half-open after the cooldown. In half-open only one trial is
// admitted at a time.
func (b *breaker) allow() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch b.state {
	case breakerClosed:
		return nil
	case breakerOpen:
		if b.now().Sub(b.openedAt) < b.policy.cooldown() {
			return ErrCircuitOpen
		}
		b.setState(breakerHalfOpen)
		b.trial = true
		return nil
	default: // half-open
		if b.trial {
			return ErrCircuitOpen
		}
		b.trial = true
		return nil
	}
}

// report records an attempt's outcome. Success closes the circuit and
// clears the failure streak; failure extends the streak and opens the
// circuit at the threshold (or immediately, from half-open).
func (b *breaker) report(ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.trial = false
	if ok {
		b.fails = 0
		if b.state != breakerClosed {
			b.setState(breakerClosed)
		}
		return
	}
	b.fails++
	if b.state == breakerHalfOpen || (b.state == breakerClosed && b.fails >= b.policy.threshold()) {
		if b.state != breakerOpen {
			if b.reg != nil {
				b.reg.BreakerTripped()
			}
			b.setState(breakerOpen)
		}
		b.openedAt = b.now()
	}
}

// defaultHTTPClient is shared by all zero-HTTP Clients: one transport
// (so connections are pooled and reused) with an overall timeout, so a
// wedged server cannot hang a caller forever.
var defaultHTTPClient = &http.Client{Timeout: 30 * time.Second}

// NewClient returns a plain single-attempt client for the given base
// URL (trailing slashes trimmed).
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
}

// NewResilientClient returns a client with the default retry policy
// and circuit breaker enabled; reg (optional) receives retry and
// breaker metrics.
func NewResilientClient(base string, reg *obs.Registry) *Client {
	return &Client{
		Base:     strings.TrimRight(base, "/"),
		Retry:    &RetryPolicy{},
		Breaker:  &BreakerPolicy{},
		Registry: reg,
	}
}

func (c *Client) httpClient() *http.Client {
	if c.HTTP != nil {
		return c.HTTP
	}
	return defaultHTTPClient
}

// breakerInst lazily builds the breaker for c.Breaker (nil if unset).
func (c *Client) breakerInst() *breaker {
	if c.Breaker == nil {
		return nil
	}
	c.brkOnce.Do(func() {
		c.brk = &breaker{policy: c.Breaker, reg: c.Registry, now: time.Now}
	})
	return c.brk
}

// QueryResult is the client's view of one finished /query call.
type QueryResult struct {
	Status         int     // HTTP status
	Seq            uint64  // store version the query pinned
	Count          int     // answers returned
	Partial        bool    // sound partial result (timeout, cancel, limit)
	Incomplete     string  // what stopped a partial evaluation
	ProvedEmpty    bool    // the optimizer proved the answer empty
	Cached         bool    // compiled-program cache hit
	ElapsedSeconds float64 // server-side evaluation wall time
	Err            string  // server error message on a non-200 status
	// TraceID is the call's end-to-end trace id (one per call, held
	// constant across retries): the handle into /debug/requests.
	TraceID string
}

// MutateResult is the client's view of one finished /update or /retract
// call. Seq is the first store version that includes the write.
type MutateResult struct {
	Status  int
	Facts   int
	Seq     uint64
	Err     string
	TraceID string
}

// retryableStatus reports whether a status signals a transient
// condition worth retrying: admission rejections and gateway-style
// failures. Plain 500s are not retried — they are most likely
// deterministic.
func retryableStatus(status int) bool {
	switch status {
	case http.StatusTooManyRequests, http.StatusBadGateway,
		http.StatusServiceUnavailable, http.StatusGatewayTimeout:
		return true
	}
	return false
}

// postOnce sends one JSON request and decodes the response into out,
// returning the status, the server's error message (if any), and the
// parsed Retry-After hint. The response body is always drained and
// closed, error paths included, so the underlying connection returns
// to the pool for reuse — under a retry storm, leaking bodies turns
// every attempt into a fresh TCP+TLS handshake against an overloaded
// server.
func (c *Client) postOnce(ctx context.Context, path, idemKey string, tid tracespan.TraceID, payload []byte, out any) (status int, msg string, retryAfter time.Duration, err error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(payload))
	if err != nil {
		return 0, "", 0, err
	}
	req.Header.Set("Content-Type", "application/json")
	if !tid.IsZero() {
		// One trace id per call, a fresh span id per attempt: the W3C
		// parent of whatever server-side tree this attempt produces.
		req.Header.Set("traceparent", tracespan.Traceparent(tid, tracespan.NewSpanID()))
	}
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return 0, "", 0, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	if s := resp.Header.Get("Retry-After"); s != "" {
		if secs, perr := strconv.Atoi(s); perr == nil && secs > 0 {
			retryAfter = time.Duration(secs) * time.Second
		}
	}
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return resp.StatusCode, "", retryAfter, err
	}
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return resp.StatusCode, e.Error, retryAfter, nil
		}
		return resp.StatusCode, strings.TrimSpace(string(raw)), retryAfter, nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return resp.StatusCode, "", retryAfter, fmt.Errorf("decoding %s response: %w", path, err)
	}
	return resp.StatusCode, "", retryAfter, nil
}

// post runs the retry loop around postOnce. Transport errors and
// retryable statuses back off and retry (bounded by the policy and by
// ctx); everything else returns immediately. With no Retry policy it
// is a single attempt, preserving the raw behavior measurement tools
// depend on.
func (c *Client) post(ctx context.Context, path, idemKey string, tid tracespan.TraceID, body, out any) (int, string, error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, "", err
	}
	tb := c.Recorder.Begin(tid, tracespan.SpanID{}, "", "client."+strings.TrimPrefix(path, "/"), "")
	brk := c.breakerInst()
	attempts := 1
	if c.Retry != nil {
		attempts = c.Retry.attempts()
	}
	var (
		status     int
		msg        string
		retryAfter time.Duration
	)
	for attempt := 1; ; attempt++ {
		if brk != nil {
			if berr := brk.allow(); berr != nil {
				tb.Finish(status, "breaker_open")
				return 0, "", fmt.Errorf("%s: %w", path, berr)
			}
		}
		sp := tb.Start("attempt " + strconv.Itoa(attempt))
		status, msg, retryAfter, err = c.postOnce(ctx, path, idemKey, tid, payload, out)
		tb.End(sp)
		tb.Attr(sp, "status", strconv.Itoa(status))
		ok := err == nil && !retryableStatus(status)
		if brk != nil {
			brk.report(ok)
		}
		if ok || attempt >= attempts || ctx.Err() != nil {
			outcome := "ok"
			if !ok {
				outcome = "error"
			}
			tb.Finish(status, outcome)
			return status, msg, err
		}
		if c.Registry != nil {
			c.Registry.RetryObserved()
		}
		sleep := c.Retry.backoff(attempt, retryAfter)
		bo := tb.Start("backoff")
		t := time.NewTimer(sleep)
		select {
		case <-t.C:
			tb.End(bo)
		case <-ctx.Done():
			t.Stop()
			tb.End(bo)
			tb.Finish(status, "canceled")
			return status, msg, err
		}
	}
}

// newIdempotencyKey returns a fresh random mutation ID. It is
// generated once per Mutate call and reused across every retry
// attempt, which is exactly what makes an ack-lost retry safe: the
// store's dedup window recognizes the key and acknowledges the
// already-applied write instead of applying it twice.
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return "" // no entropy: send the mutation without dedup protection
	}
	return hex.EncodeToString(b[:])
}

// Query evaluates one goal. timeout > 0 is forwarded as the request's
// timeout_ms, bounding the server-side evaluation.
func (c *Client) Query(ctx context.Context, goal string, timeout time.Duration) (QueryResult, error) {
	req := queryRequest{Goal: goal}
	if timeout > 0 {
		req.TimeoutMS = timeout.Milliseconds()
	}
	var resp queryResponse
	// One trace id per call: retries reuse it with fresh span ids, so the
	// server-side recorder shows one trace with N attempt entries.
	tid := tracespan.NewTraceID()
	status, msg, err := c.post(ctx, "/query", "", tid, req, &resp)
	if err != nil {
		return QueryResult{Status: status, TraceID: tid.String()}, err
	}
	if msg != "" {
		return QueryResult{Status: status, Err: msg, TraceID: tid.String()}, nil
	}
	return QueryResult{
		Status:         status,
		Seq:            resp.Seq,
		Count:          resp.Count,
		Partial:        resp.Partial,
		Incomplete:     resp.Incomplete,
		ProvedEmpty:    resp.ProvedEmpty,
		Cached:         resp.Cached,
		ElapsedSeconds: resp.ElapsedSeconds,
		TraceID:        tid.String(),
	}, nil
}

// Mutate posts ground facts to /update or /retract (op names the
// endpoint). The call returns once the write is durable and applied.
// Every mutation carries a fresh Idempotency-Key, held constant across
// retries, so a retried ack-lost write is applied at most once.
func (c *Client) Mutate(ctx context.Context, op string, facts []string, timeout time.Duration) (MutateResult, error) {
	if op != "update" && op != "retract" {
		return MutateResult{}, fmt.Errorf("client: unknown mutation op %q", op)
	}
	req := mutationRequest{Facts: facts}
	if timeout > 0 {
		req.TimeoutMS = timeout.Milliseconds()
	}
	var resp mutationResponse
	tid := tracespan.NewTraceID()
	status, msg, err := c.post(ctx, "/"+op, newIdempotencyKey(), tid, req, &resp)
	if err != nil {
		return MutateResult{Status: status, TraceID: tid.String()}, err
	}
	if msg != "" {
		return MutateResult{Status: status, Err: msg, TraceID: tid.String()}, nil
	}
	return MutateResult{Status: status, Facts: resp.Facts, Seq: resp.Seq, TraceID: tid.String()}, nil
}
