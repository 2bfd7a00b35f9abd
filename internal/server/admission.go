// Admission control: a fixed pool of evaluation slots fronted by one
// bounded wait queue per priority class. This replaces the old
// unbounded `slots chan struct{}` wait — under overload the old path
// let requests pile up without limit, turning saturation into
// unbounded latency and timeout storms. The controller instead makes
// three explicit decisions, in order of preference:
//
//   - admit: a slot is free (and no one of equal-or-higher priority is
//     already waiting), so the request evaluates now;
//   - queue: the class's queue has room, so the request waits — but
//     only up to the queue timeout, and only while its own deadline is
//     alive;
//   - reject: the queue is full (429) or the wait timed out (503),
//     reported immediately with a Retry-After hint so well-behaved
//     clients back off instead of hammering.
//
// Slots hand off in strict priority order — query > mutation — and a
// queued request whose context expired before it reached the front is
// *shed*: discarded at dequeue without ever starting evaluation, because
// evaluating work nobody is waiting for is the classic overload death
// spiral. Probes and scrapes (/healthz, /readyz, /metrics) never enter
// admission at all: they are O(1) and must stay responsive precisely
// when the server is saturated.
package server

import (
	"context"
	"errors"
	"sync"
	"time"

	"existdlog/internal/obs"
)

// admitClass is a request's priority class, highest priority first.
type admitClass int

const (
	// admitQuery is for /query: reads keep flowing as long as any
	// capacity exists.
	admitQuery admitClass = iota
	// admitMutation is for /update and /retract: writes yield to reads
	// under contention (a lost read is user-visible latency; a rejected
	// write is retried by the idempotent client).
	admitMutation
	numAdmitClasses
)

func (c admitClass) String() string {
	if c == admitQuery {
		return "query"
	}
	return "mutation"
}

// Admission rejection errors. Handlers map these to HTTP statuses:
// errQueueFull → 429 (the queue itself is out of capacity — back off),
// errQueueTimeout → 503 (we waited the configured bound and no slot
// freed), errShed → 503 (the request's own deadline expired while it
// waited, so evaluating it would serve no one).
var (
	errQueueFull    = errors.New("admission queue is full")
	errQueueTimeout = errors.New("timed out waiting for an evaluation slot")
	errShed         = errors.New("request deadline expired while queued")
)

// waiterState tracks who is responsible for a queued waiter's slot.
// Transitions happen under admission.mu, so exactly one side — the
// granter popping the queue, or the waiter giving up — settles each
// waiter.
type waiterState int

const (
	waiting   waiterState = iota
	granted               // a slot was handed to this waiter via its grant channel
	shed                  // the granter discarded it at dequeue (deadline already dead)
	abandoned             // the waiter gave up (timeout or cancellation) before a grant
)

type waiter struct {
	ctx   context.Context
	grant chan struct{} // buffered(1): the granter never blocks on a vanished waiter
	state waiterState
}

// admission is the slot pool plus per-class bounded FIFO queues.
type admission struct {
	maxQueue     int           // per-class queue capacity
	queueTimeout time.Duration // max time a request may wait queued (0 = wait for its own deadline only)
	reg          *obs.Registry

	mu     sync.Mutex
	free   int // slots not currently held
	queues [numAdmitClasses][]*waiter
}

func newAdmission(slots, maxQueue int, queueTimeout time.Duration, reg *obs.Registry) *admission {
	return &admission{
		maxQueue:     maxQueue,
		queueTimeout: queueTimeout,
		reg:          reg,
		free:         slots,
	}
}

// queuedLocked reports whether any waiter of class c or higher priority
// is queued (admission.mu held). A free slot is not taken out of order:
// even a request that could run now queues behind earlier arrivals of
// its own class, preserving FIFO within a class.
func (a *admission) queuedLocked(c admitClass) bool {
	for k := admitClass(0); k <= c; k++ {
		if len(a.queues[k]) > 0 {
			return true
		}
	}
	return false
}

// admit acquires an evaluation slot for a request of class c, waiting
// in the class's bounded queue if none is free. On success the caller
// MUST call release exactly once when evaluation finishes. On error
// (errQueueFull, errQueueTimeout, errShed, or a wrapped form) no slot
// is held. ctx should carry the request's own deadline: it bounds the
// queue wait, and its expiry while queued sheds the request.
func (a *admission) admit(ctx context.Context, c admitClass) error {
	a.mu.Lock()
	if a.free > 0 && !a.queuedLocked(c) {
		a.free--
		a.mu.Unlock()
		return nil
	}
	if len(a.queues[c]) >= a.maxQueue {
		a.mu.Unlock()
		return errQueueFull
	}
	w := &waiter{ctx: ctx, grant: make(chan struct{}, 1)}
	a.queues[c] = append(a.queues[c], w)
	a.mu.Unlock()

	a.reg.QueueEnter()
	defer a.reg.QueueLeave()

	var timeout <-chan time.Time
	if a.queueTimeout > 0 {
		t := time.NewTimer(a.queueTimeout)
		defer t.Stop()
		timeout = t.C
	}

	select {
	case <-w.grant:
		// Shed at dequeue, second check: the granter verified the
		// deadline when it popped us, but the grant and the expiry can
		// race — never start evaluating on a dead deadline.
		if ctx.Err() != nil {
			a.reg.Shed()
			a.release()
			return errShed
		}
		return nil
	case <-ctx.Done():
		switch a.settle(w, shed) {
		case waiting:
			a.reg.Shed()
			return errShed
		case granted:
			// A grant raced our cancellation: we own a slot we cannot use.
			<-w.grant
			a.reg.Shed()
			a.release()
			return errShed
		default: // the granter shed us first and already counted it
			return errShed
		}
	case <-timeout:
		switch a.settle(w, abandoned) {
		case waiting:
			return errQueueTimeout
		case granted:
			// Granted at the same instant the timer fired — take the slot.
			<-w.grant
			if ctx.Err() != nil {
				a.reg.Shed()
				a.release()
				return errShed
			}
			return nil
		default: // shed by the granter while the timer fired
			return errShed
		}
	}
}

// settle moves a still-waiting waiter to state s and returns the state
// it found. Anything but `waiting` means another party settled the
// waiter first: `granted` means it owns a slot (and must consume the
// pending grant), `shed` means the granter discarded and counted it.
func (a *admission) settle(w *waiter, s waiterState) waiterState {
	a.mu.Lock()
	defer a.mu.Unlock()
	prev := w.state
	if prev == waiting {
		w.state = s
	}
	return prev
}

// release returns a slot to the pool, handing it to the
// highest-priority live waiter if one is queued. Waiters whose
// deadlines died while queued are shed here — popped, counted, and
// never granted — so a burst of expired requests cannot occupy the
// engine.
func (a *admission) release() {
	a.mu.Lock()
	for c := admitClass(0); c < numAdmitClasses; c++ {
		q := a.queues[c]
		for len(q) > 0 {
			w := q[0]
			q = q[1:]
			if w.state != waiting {
				continue // gave up already; nothing owed
			}
			if w.ctx.Err() != nil {
				// Shed at dequeue: the deadline died while it waited.
				w.state = shed
				a.reg.Shed()
				continue
			}
			w.state = granted
			a.queues[c] = q
			a.mu.Unlock()
			w.grant <- struct{}{}
			return
		}
		a.queues[c] = q
	}
	a.free++
	a.mu.Unlock()
}
