package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"existdlog/internal/ast"
	"existdlog/internal/engine"
	"existdlog/internal/obs"
	"existdlog/internal/wal"
)

// ErrDegraded marks mutations refused while the store is in degraded
// read-only mode: a WAL append or fsync failed (disk full, I/O error),
// so writes cannot be made durable. Queries keep serving from the last
// installed version; a background probe re-enables writes once the log
// accepts a durable frame again.
var ErrDegraded = errors.New("store is degraded (read-only): the write-ahead log is failing")

// Store is the versioned copy-on-write fact store behind the service's
// write path. Readers pin an immutable Version with one atomic load and
// are never blocked: a pinned version's databases are frozen forever.
// Writers serialize through a single applier goroutine, which drains
// every mutation waiting in its queue into one batch — one clone of the
// base facts, one WAL group commit, one atomically-installed successor
// version — so bursts of small writes amortize the fsync.
//
// The store holds base facts only. Derived relations are computed per
// query, from the goal's optimized program, on the version the query
// pinned; the write path never runs the fixpoint.
//
// Durability (optional, enabled by a WAL directory): a mutation is
// acknowledged only after its record is fsync'd in the append-only log
// AND applied, so every acknowledged write survives SIGKILL; startup
// replays checkpoint + log, reproducing the exact base state.
type Store struct {
	prog *ast.Program
	reg  *obs.Registry
	log  *slog.Logger
	now  func() time.Time

	cur atomic.Pointer[Version]

	wlog      *wal.Log // nil when the store is memory-only
	snapPath  string
	snapEvery int
	sinceSnap int

	// Degraded read-only mode: set when a WAL append/sync fails, cleared
	// when a probe write succeeds. Mutate fails fast while set; queries
	// never look at it. The cause string feeds the readiness probe.
	degraded      atomic.Bool
	degradedMu    sync.Mutex
	degradedCause string
	probeEvery    time.Duration

	// Idempotency dedup window: client-supplied mutation IDs already
	// applied, mapped to an including version's sequence. Owned by the
	// applier goroutine (and by NewStore's replay, which runs before the
	// applier starts), so it needs no lock. Bounded FIFO: seenOrder
	// remembers insertion order for eviction. Replay refills it from the
	// log records newer than the checkpoint only: a checkpoint resets the
	// log and the snapshot keeps no IDs, so after a checkpoint and a
	// restart the window has forgotten every earlier key.
	seen      map[string]uint64
	seenOrder []string

	reqs      chan *mutReq
	quit      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
	closeErr  error
}

// Version is one immutable state of the store: the base facts and the
// sequence number of the last mutation included.
type Version struct {
	Seq uint64
	EDB *engine.Database
}

// Mutation is one write request: add (OpUpdate) or remove (OpRetract)
// the given base facts. ID, when non-empty, is an idempotency key: a
// mutation whose ID was already applied (within the dedup window)
// acknowledges the original's sequence without applying again — the
// contract that makes a retried ack-lost write safe. The window outlives
// a restart only for the mutations logged since the last checkpoint (see
// Store.seen).
type Mutation struct {
	Op    wal.Op
	Facts []wal.Fact
	ID    string
	// Req and Trace identify the originating request ("m7") and its
	// trace id for end-to-end correlation: they ride into the WAL record
	// and, if this mutation's batch breaks the log, into the degraded
	// cause reported by /readyz.
	Req   string
	Trace string
}

type mutReq struct {
	m Mutation
	// enq is when the mutation entered the applier queue (real monotonic
	// clock — span math must never see the server's injectable fake);
	// the queue-to-applier handoff span is enq → timing.dequeued.
	enq time.Time
	ack chan mutAck // buffered; the applier never blocks on a waiter
}

type mutAck struct {
	seq uint64
	err error
	// timing is the shared stage breakdown of the batch that carried
	// this mutation (nil on failure paths that never started applying).
	timing *batchTiming
}

// batchTiming is the applier-side stage clock of one batch, shared by
// every mutation the batch acknowledged. All stamps are real time.Now
// wall/monotonic times; the request handler converts them into child
// spans of its "store" span.
type batchTiming struct {
	dequeued  time.Time // applier picked the batch up
	applied   time.Time // base facts cloned, batch validated and applied to the clone
	walDone   time.Time // records appended (zero when memory-only)
	synced    time.Time // group-commit fsync done (zero when memory-only)
	installed time.Time // new version installed and checkpoint policy run
	size      int       // mutations in the batch (coalescing visibility)
}

// StoreConfig configures NewStore.
type StoreConfig struct {
	// WALDir enables durability: the mutation log and checkpoints live
	// here. Empty runs the store in memory only.
	WALDir string
	// SnapshotEvery checkpoints the base facts after this many logged
	// mutations, then truncates the log. 0 never checkpoints (the log
	// grows until restart).
	SnapshotEvery int
	// ProbeEvery is how often a degraded store probes the log for
	// recovery (0 = 500ms). Tests shorten it.
	ProbeEvery time.Duration
	Registry   *obs.Registry
	Logger     *slog.Logger
	Now        func() time.Time
}

const (
	walFile  = "wal.log"
	snapFile = "snapshot.db"
	// maxBatch bounds how many queued mutations one batch absorbs, so
	// acks are never starved behind an unbounded drain.
	maxBatch = 256
	// idemWindow bounds the idempotency dedup map: the oldest remembered
	// ID is evicted past this many. A retry storm resolves within
	// seconds; the window only needs to outlive the client's retry
	// horizon, not the process.
	idemWindow = 8192
)

// NewStore recovers the durable state (checkpoint, then newer log
// records) on top of the program's own base facts and starts the
// applier.
func NewStore(prog *ast.Program, edb *engine.Database, cfg StoreConfig) (*Store, error) {
	s := &Store{
		prog:       prog,
		reg:        cfg.Registry,
		log:        cfg.Logger,
		now:        cfg.Now,
		snapEvery:  cfg.SnapshotEvery,
		probeEvery: cfg.ProbeEvery,
		seen:       make(map[string]uint64),
		reqs:       make(chan *mutReq, maxBatch),
		quit:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if s.probeEvery <= 0 {
		s.probeEvery = 500 * time.Millisecond
	}
	if s.log == nil {
		s.log = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	if s.now == nil {
		s.now = time.Now
	}
	var seq uint64
	if cfg.WALDir != "" {
		if err := os.MkdirAll(cfg.WALDir, 0o755); err != nil {
			return nil, fmt.Errorf("server: wal dir: %w", err)
		}
		s.snapPath = filepath.Join(cfg.WALDir, snapFile)
		snapSeq, snapDB, err := wal.ReadSnapshotFile(s.snapPath)
		switch {
		case err == nil:
			// The checkpoint is the whole base state at snapSeq; the
			// program's source facts are already inside it.
			edb = snapDB
			seq = snapSeq
		case errors.Is(err, os.ErrNotExist):
			// First start: the program's own facts are the base state.
		default:
			return nil, err
		}
		wlog, recs, err := wal.Open(filepath.Join(cfg.WALDir, walFile))
		if err != nil {
			return nil, err
		}
		s.wlog = wlog
		replayed := 0
		for _, rec := range recs {
			if rec.Op == wal.OpProbe {
				continue // disk-health probe, carries no state
			}
			if rec.Seq <= seq {
				continue // already inside the checkpoint
			}
			if err := applyToEDB(edb, rec.Op, rec.Facts); err != nil {
				wlog.Close()
				return nil, fmt.Errorf("server: wal replay seq %d: %w", rec.Seq, err)
			}
			seq = rec.Seq
			replayed++
			s.rememberID(rec.ID, rec.Seq)
		}
		s.sinceSnap = replayed
		if replayed > 0 || snapSeq > 0 {
			s.log.LogAttrs(context.Background(), slog.LevelInfo, "store recovered",
				slog.Uint64("snapshot_seq", snapSeq),
				slog.Int("wal_records", replayed),
				slog.Uint64("seq", seq))
		}
	}
	s.install(&Version{Seq: seq, EDB: edb})
	go s.applier()
	return s, nil
}

// Current returns the store's latest immutable version.
func (s *Store) Current() *Version { return s.cur.Load() }

// Degraded reports whether the store is in degraded read-only mode and,
// if so, what put it there (the readiness probe's reason string).
func (s *Store) Degraded() (bool, string) {
	if !s.degraded.Load() {
		return false, ""
	}
	s.degradedMu.Lock()
	defer s.degradedMu.Unlock()
	return true, s.degradedCause
}

// enterDegraded flips the store read-only: mutations fail fast, the
// degraded gauge rises, and the applier starts probing for recovery.
// req and trace (both optional) identify the mutation whose batch broke
// the log; they are baked into the cause string so 503 bodies and
// /readyz output point straight at the flight-recorder entry of the
// triggering request.
func (s *Store) enterDegraded(cause error, req, trace string) {
	if s.degraded.Swap(true) {
		return
	}
	text := cause.Error()
	if req != "" {
		text = fmt.Sprintf("%s (triggered by request %s", text, req)
		if trace != "" {
			text += " trace " + trace
		}
		text += ")"
	}
	s.degradedMu.Lock()
	s.degradedCause = text
	s.degradedMu.Unlock()
	if s.reg != nil {
		s.reg.SetDegraded(true)
	}
	s.log.LogAttrs(context.Background(), slog.LevelError,
		"store degraded: serving reads only until the log recovers",
		slog.String("cause", text),
		slog.String("request", req),
		slog.String("trace", trace))
}

// exitDegraded re-enables writes after a successful probe.
func (s *Store) exitDegraded() {
	if !s.degraded.Swap(false) {
		return
	}
	s.degradedMu.Lock()
	s.degradedCause = ""
	s.degradedMu.Unlock()
	if s.reg != nil {
		s.reg.SetDegraded(false)
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo,
		"store recovered: probe write succeeded, mutations re-enabled")
}

// probe checks whether the log takes durable writes again; on success
// the store leaves degraded mode.
func (s *Store) probe() {
	if s.wlog == nil {
		return
	}
	if err := s.wlog.Probe(); err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelDebug, "degraded probe failed",
			slog.String("error", err.Error()))
		return
	}
	s.exitDegraded()
}

// rememberID records an applied idempotency key, evicting the oldest
// past the window. Applier-owned (startup replay runs before the
// applier), so no locking.
func (s *Store) rememberID(id string, seq uint64) {
	if id == "" {
		return
	}
	if _, ok := s.seen[id]; ok {
		return
	}
	s.seen[id] = seq
	s.seenOrder = append(s.seenOrder, id)
	if len(s.seenOrder) > idemWindow {
		delete(s.seen, s.seenOrder[0])
		s.seenOrder = s.seenOrder[1:]
	}
}

// Mutate submits one mutation and waits for it to be durable and
// applied. The returned sequence identifies the first version that
// includes it. Cancelling ctx abandons the wait, not the write: a
// mutation already queued may still apply.
func (s *Store) Mutate(ctx context.Context, m Mutation) (uint64, error) {
	seq, _, _, err := s.MutateTraced(ctx, m)
	return seq, err
}

// MutateTraced is Mutate plus the applier-side stage timing: the
// enqueue time and the batch's timing stamps (nil when the write failed
// before applying), which the request handler grafts into its span
// tree.
func (s *Store) MutateTraced(ctx context.Context, m Mutation) (uint64, time.Time, *batchTiming, error) {
	if m.Op != wal.OpUpdate && m.Op != wal.OpRetract {
		return 0, time.Time{}, nil, fmt.Errorf("server: unknown mutation op %q", m.Op)
	}
	if len(m.Facts) == 0 {
		return 0, time.Time{}, nil, errors.New("server: mutation with no facts")
	}
	if s.degraded.Load() {
		// Fail fast: don't even queue. A request already queued when the
		// flag flips is failed by the applier instead.
		_, cause := s.Degraded()
		return 0, time.Time{}, nil, fmt.Errorf("%w: %s", ErrDegraded, cause)
	}
	req := &mutReq{m: m, enq: time.Now(), ack: make(chan mutAck, 1)}
	select {
	case s.reqs <- req:
	case <-s.quit:
		return 0, req.enq, nil, errors.New("server: store is closed")
	case <-ctx.Done():
		return 0, req.enq, nil, ctx.Err()
	}
	select {
	case a := <-req.ack:
		return a.seq, req.enq, a.timing, a.err
	case <-ctx.Done():
		return 0, req.enq, nil, ctx.Err()
	case <-s.done:
		// The applier exited. A request enqueued concurrently with Close
		// may have been acked just before the exit (acks are buffered) or
		// never picked up at all.
		select {
		case a := <-req.ack:
			return a.seq, req.enq, a.timing, a.err
		default:
			return 0, req.enq, nil, errors.New("server: store is closed")
		}
	}
}

// Close stops the applier after it finishes the batch in hand (writes
// are never abandoned mid-apply) and closes the log. Mutations still
// queued are failed, not applied. Safe to call more than once.
func (s *Store) Close() error {
	s.closeOnce.Do(func() {
		close(s.quit)
		<-s.done
		if s.wlog != nil {
			s.closeErr = s.wlog.Close()
		}
	})
	return s.closeErr
}

// install publishes a version and its shape gauges.
func (s *Store) install(v *Version) {
	s.cur.Store(v)
	if s.reg != nil {
		base := 0
		for _, key := range v.EDB.Keys() {
			base += v.EDB.Count(key)
		}
		s.reg.SetStoreShape(v.Seq, base)
	}
}

// applyToEDB applies one logged mutation to the base facts. Arity
// mismatches are the only way this fails; the applier validates before
// logging, so during replay a failure means the served program changed
// incompatibly under an old WAL.
func applyToEDB(edb *engine.Database, op wal.Op, facts []wal.Fact) error {
	switch op {
	case wal.OpUpdate:
		for _, f := range facts {
			if err := edb.CheckArity(f.Key, len(f.Row)); err != nil {
				return err
			}
			edb.Add(f.Key, f.Row...)
		}
	case wal.OpRetract:
		byKey := map[string][][]string{}
		for _, f := range facts {
			byKey[f.Key] = append(byKey[f.Key], f.Row)
		}
		for key, rows := range byKey {
			edb.RemoveFacts(key, rows)
		}
	default:
		return fmt.Errorf("unknown op %q", op)
	}
	return nil
}

// applier is the single writer: it drains waiting mutations into one
// batch, validates them, applies them to a fresh copy of the base facts,
// group-commits the WAL, installs the new version, and only then
// acknowledges.
func (s *Store) applier() {
	defer close(s.done)
	for {
		var first *mutReq
		if s.degraded.Load() {
			// Read-only: instead of blocking on work that would only be
			// refused, wake periodically to probe the log for recovery.
			timer := time.NewTimer(s.probeEvery)
			select {
			case first = <-s.reqs:
				timer.Stop()
			case <-timer.C:
				s.probe()
				continue
			case <-s.quit:
				timer.Stop()
				s.failQueued()
				return
			}
		} else {
			select {
			case first = <-s.reqs:
			case <-s.quit:
				s.failQueued()
				return
			}
		}
		batch := []*mutReq{first}
	drain:
		for len(batch) < maxBatch {
			select {
			case r := <-s.reqs:
				batch = append(batch, r)
			default:
				break drain
			}
		}
		s.applyBatch(batch)
	}
}

// failQueued rejects mutations still queued at shutdown.
func (s *Store) failQueued() {
	for {
		select {
		case r := <-s.reqs:
			r.ack <- mutAck{err: errors.New("server: store is closed")}
		default:
			return
		}
	}
}

// applyBatch applies one batch of mutations: clone, validate, apply,
// WAL group commit, install, ack.
func (s *Store) applyBatch(batch []*mutReq) {
	if s.degraded.Load() {
		// Queued before (or while) the flag flipped: refuse without
		// touching the log or the state.
		_, cause := s.Degraded()
		s.ackAll(batch, mutAck{err: fmt.Errorf("%w: %s", ErrDegraded, cause)})
		return
	}
	start := s.now()
	timing := &batchTiming{dequeued: time.Now(), size: len(batch)}
	prev := s.cur.Load()
	edb := prev.EDB.Clone()

	// Validate against the base state; invalid mutations are acked with
	// their error and excluded from the batch (they reach neither the
	// log nor the new version). A mutation whose idempotency key was
	// already applied is acked with the remembered sequence — it was
	// durable the first time; an in-batch duplicate rides along and acks
	// with this batch's sequence.
	valid := batch[:0:0]
	var dupes []*mutReq // in-batch duplicates: share the batch's fate
	batchIDs := map[string]bool{}
	for _, r := range batch {
		if r.m.ID != "" {
			if seq, ok := s.seen[r.m.ID]; ok {
				r.ack <- mutAck{seq: seq}
				continue
			}
			if batchIDs[r.m.ID] {
				dupes = append(dupes, r)
				continue
			}
		}
		if err := s.validate(edb, r.m); err != nil {
			r.ack <- mutAck{err: err}
			continue
		}
		if r.m.ID != "" {
			batchIDs[r.m.ID] = true
		}
		valid = append(valid, r)
	}
	if len(valid) == 0 {
		return
	}

	// Apply in submission order to this batch's private copy. Two
	// mutations that each validated alone can still disagree on a new
	// relation's arity; then nothing is logged or installed and the whole
	// batch is refused.
	for _, r := range valid {
		if err := applyToEDB(edb, r.m.Op, r.m.Facts); err != nil {
			s.ackAll(valid, mutAck{err: err})
			s.ackAll(dupes, mutAck{err: err})
			return
		}
	}
	timing.applied = time.Now()

	// Group commit: one fsync covers every record in the batch. A log
	// failure here — append or sync, real or injected — means the batch
	// cannot be made durable: no version is installed, no ack is sent,
	// any frames already appended are rolled back to the durable prefix,
	// and the store flips to degraded read-only mode.
	seq := prev.Seq
	if s.wlog != nil {
		var werr error
		for _, r := range valid {
			seq++
			if werr = s.wlog.Append(wal.Record{Seq: seq, Op: r.m.Op, Facts: r.m.Facts, ID: r.m.ID, Trace: r.m.Trace}); werr != nil {
				break
			}
		}
		timing.walDone = time.Now()
		if werr == nil {
			werr = s.wlog.Sync()
		}
		timing.synced = time.Now()
		if werr != nil {
			if rberr := s.wlog.Rollback(); rberr != nil {
				s.log.LogAttrs(context.Background(), slog.LevelWarn, "wal rollback failed",
					slog.String("error", rberr.Error()))
			}
			// Attribute the failure to the first mutation of the batch:
			// its request and trace ids make the degraded cause (503
			// bodies, /readyz) correlatable with the flight recorder.
			s.enterDegraded(werr, valid[0].m.Req, valid[0].m.Trace)
			ack := mutAck{err: fmt.Errorf("%w: %s", ErrDegraded, werr)}
			s.ackAll(valid, ack)
			s.ackAll(dupes, ack)
			return
		}
		if s.reg != nil {
			s.reg.WALAppended(len(valid))
			s.reg.WALSynced()
		}
	} else {
		seq += uint64(len(valid))
	}

	for _, r := range valid {
		s.rememberID(r.m.ID, seq)
	}
	s.install(&Version{Seq: seq, EDB: edb})
	// Checkpoint before acking: not needed for durability (the WAL
	// already covers the batch) but it keeps "ack received" implying
	// "checkpoint policy observed", which recovery tests rely on.
	s.maybeSnapshot(len(valid), seq, edb)
	timing.installed = time.Now()
	if s.reg != nil {
		s.reg.ObserveMaintenance(len(valid), s.now().Sub(start))
	}
	s.ackAll(valid, mutAck{seq: seq, timing: timing})
	s.ackAll(dupes, mutAck{seq: seq, timing: timing})
}

func (s *Store) ackAll(reqs []*mutReq, a mutAck) {
	for _, r := range reqs {
		r.ack <- a
	}
}

// validate rejects mutations the base state must never hold: derived
// predicates (the per-query fixpoint owns those) and arity mismatches
// with the existing relations.
func (s *Store) validate(edb *engine.Database, m Mutation) error {
	for _, f := range m.Facts {
		if s.prog.Derived[f.Key] {
			return fmt.Errorf("server: %s is a derived predicate; only base facts can be written", f.Key)
		}
		if err := edb.CheckArity(f.Key, len(f.Row)); err != nil {
			return err
		}
	}
	return nil
}

// maybeSnapshot checkpoints the base state once enough mutations have
// accumulated since the last checkpoint, then truncates the log. A
// failed checkpoint only logs: the WAL still covers every mutation, so
// durability is unaffected.
func (s *Store) maybeSnapshot(applied int, seq uint64, edb *engine.Database) {
	if s.wlog == nil || s.snapEvery <= 0 {
		return
	}
	s.sinceSnap += applied
	if s.sinceSnap < s.snapEvery {
		return
	}
	if err := wal.WriteSnapshotFile(s.snapPath, seq, edb); err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "checkpoint failed",
			slog.Any("error", err))
		return
	}
	if err := s.wlog.Reset(); err != nil {
		s.log.LogAttrs(context.Background(), slog.LevelWarn, "wal reset failed",
			slog.Any("error", err))
	}
	s.sinceSnap = 0
	if s.reg != nil {
		s.reg.SnapshotWritten()
	}
	s.log.LogAttrs(context.Background(), slog.LevelInfo, "checkpoint written",
		slog.Uint64("seq", seq))
}
