package tracespan

import "sync/atomic"

// Recorder is the flight recorder: a fixed-size lock-free ring of the
// most recently completed request traces. Writers claim a slot with one
// atomic increment and publish with one atomic pointer store — no
// locks, no allocation beyond the trace itself (which the Builder
// already built), and readers (/debug/requests) snapshot without
// blocking writers.
//
// A nil *Recorder is the disabled state: Begin returns a nil *Builder
// and the whole span path degenerates to nil-receiver no-ops.
type Recorder struct {
	slots []atomic.Pointer[Request]
	next  atomic.Uint64
}

// NewRecorder returns a recorder keeping the last size completed
// requests (minimum 16, rounded up to a power of two so slot claiming
// is a mask, not a modulo).
func NewRecorder(size int) *Recorder {
	if size < 16 {
		size = 16
	}
	n := 16
	for n < size {
		n <<= 1
	}
	return &Recorder{slots: make([]atomic.Pointer[Request], n)}
}

// Cap returns the ring capacity (0 on nil).
func (r *Recorder) Cap() int {
	if r == nil {
		return 0
	}
	return len(r.slots)
}

// put publishes a completed trace, evicting the oldest entry once full.
func (r *Recorder) put(req *Request) {
	if r == nil || req == nil {
		return
	}
	i := r.next.Add(1) - 1
	r.slots[i&uint64(len(r.slots)-1)].Store(req)
}

// Snapshot returns up to limit completed traces, newest first
// (limit <= 0 means the whole ring). Entries are immutable once
// published; the slice is freshly allocated and safe to retain.
func (r *Recorder) Snapshot(limit int) []*Request {
	if r == nil {
		return nil
	}
	n := len(r.slots)
	if limit <= 0 || limit > n {
		limit = n
	}
	out := make([]*Request, 0, limit)
	head := r.next.Load()
	for i := 0; i < n && len(out) < limit; i++ {
		// Walk backwards from the most recently claimed slot.
		idx := (head - 1 - uint64(i)) & uint64(n-1)
		if head < uint64(n) && uint64(i) >= head {
			break // ring not yet full: older slots were never written
		}
		if req := r.slots[idx].Load(); req != nil {
			out = append(out, req)
		}
	}
	return out
}

// Find returns the recorded trace with the given trace id, or nil. When
// a trace id appears more than once (client retries share a trace id
// across attempts), the newest entry wins.
func (r *Recorder) Find(traceID string) *Request {
	for _, req := range r.Snapshot(0) {
		if req.TraceID == traceID {
			return req
		}
	}
	return nil
}
