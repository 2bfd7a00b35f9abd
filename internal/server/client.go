package server

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strings"
	"time"

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
// A call is one attempt: rejections (429, 503) and failures come back
// to the caller as they are. Every call carries a fresh trace id in its
// traceparent header, and every mutation a fresh Idempotency-Key, so a
// caller that resends a mutation with the same key after a lost ack has
// it applied once by the store's dedup window.
type Client struct {
	// Base is the served instance's base URL, e.g. "http://127.0.0.1:8347".
	Base string
}

// httpClient is shared by all Clients: one transport (so connections
// are pooled and reused) with an overall timeout, so a wedged server
// cannot hang a caller forever (http.DefaultClient has no timeout).
var httpClient = &http.Client{Timeout: 30 * time.Second}

// NewClient returns a client for the given base URL (trailing slashes
// trimmed).
func NewClient(base string) *Client {
	return &Client{Base: strings.TrimRight(base, "/")}
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
	// TraceID is the call's end-to-end trace id: the handle into
	// /debug/requests.
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

// post sends one JSON request and decodes a 200 response into out,
// returning the status and, on any other status, the server's error
// message. Every call carries the trace id tid with a fresh span id —
// the W3C parent of whatever server-side tree the request produces —
// and idemKey, when set, as its Idempotency-Key. The response body is
// always drained and closed, error paths included, so the underlying
// connection returns to the pool for reuse.
func (c *Client) post(ctx context.Context, path, idemKey string, tid tracespan.TraceID, body, out any) (status int, msg string, err error) {
	payload, err := json.Marshal(body)
	if err != nil {
		return 0, "", err
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.Base+path, bytes.NewReader(payload))
	if err != nil {
		return 0, "", err
	}
	req.Header.Set("Content-Type", "application/json")
	req.Header.Set("traceparent", tracespan.Traceparent(tid, tracespan.NewSpanID()))
	if idemKey != "" {
		req.Header.Set("Idempotency-Key", idemKey)
	}
	resp, err := httpClient.Do(req)
	if err != nil {
		return 0, "", err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	raw, err := io.ReadAll(io.LimitReader(resp.Body, 8<<20))
	if err != nil {
		return resp.StatusCode, "", err
	}
	if resp.StatusCode != http.StatusOK {
		var e errorResponse
		if json.Unmarshal(raw, &e) == nil && e.Error != "" {
			return resp.StatusCode, e.Error, nil
		}
		return resp.StatusCode, strings.TrimSpace(string(raw)), nil
	}
	if err := json.Unmarshal(raw, out); err != nil {
		return resp.StatusCode, "", fmt.Errorf("decoding %s response: %w", path, err)
	}
	return resp.StatusCode, "", nil
}

// newIdempotencyKey returns a fresh random mutation ID, one per Mutate
// call. A caller that resends the same write under the same key after
// a lost ack is safe: the store's dedup window recognizes the key and
// acknowledges the already-applied write instead of applying it twice.
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
// Every mutation carries a fresh Idempotency-Key.
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
