package server

import (
	"context"
	"net/http"
	"time"

	"existdlog/internal/tracespan"
)

// retryAttempts bounds postRetrying: enough for the chaos soak's killed
// connections and injected disk faults to clear, few enough that a
// persistent failure still ends the call quickly.
const retryAttempts = 5

// postRetrying resends one request through c until the answer is neither
// a transport error nor a 429/5xx, ctx ends, or retryAttempts run out, and
// returns the last attempt's status, error message and error, with out
// decoded from the 200 answer. Every attempt carries the same
// Idempotency-Key (when idemKey is set) and trace id, each with a fresh
// span id: that is what a retrying caller must send for the store's dedup
// window to apply an ack-lost write once, and for the flight recorder to
// show one entry per attempt under one trace.
func postRetrying(ctx context.Context, c *Client, path, idemKey string, tid tracespan.TraceID, body, out any) (status int, msg string, err error) {
	for attempt := 1; ; attempt++ {
		status, msg, err = c.post(ctx, path, idemKey, tid, body, out)
		transient := err != nil || status == http.StatusTooManyRequests || status >= 500
		if !transient || attempt == retryAttempts || ctx.Err() != nil {
			return status, msg, err
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// mutateRetrying is Mutate through postRetrying: one fresh Idempotency-Key
// and trace id for the whole call.
func mutateRetrying(ctx context.Context, c *Client, op string, facts []string, timeout time.Duration) (MutateResult, error) {
	var resp mutationResponse
	tid := tracespan.NewTraceID()
	req := mutationRequest{Facts: facts, TimeoutMS: timeout.Milliseconds()}
	status, msg, err := postRetrying(ctx, c, "/"+op, newIdempotencyKey(), tid, req, &resp)
	return MutateResult{Status: status, Facts: resp.Facts, Seq: resp.Seq, Err: msg, TraceID: tid.String()}, err
}

// queryRetrying is Query through postRetrying: one trace id for the whole
// call.
func queryRetrying(ctx context.Context, c *Client, goal string, timeout time.Duration) (QueryResult, error) {
	var resp queryResponse
	tid := tracespan.NewTraceID()
	req := queryRequest{Goal: goal, TimeoutMS: timeout.Milliseconds()}
	status, msg, err := postRetrying(ctx, c, "/query", "", tid, req, &resp)
	return QueryResult{Status: status, Seq: resp.Seq, Count: resp.Count, Partial: resp.Partial, Err: msg, TraceID: tid.String()}, err
}
