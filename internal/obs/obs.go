// Package obs is the process-lifetime observability registry behind
// `existdlog serve` and the repl's `stats` command: it aggregates the
// per-query engine Stats and trace.Metrics that each evaluation already
// produces into counters, gauges, and histograms, and renders them as
// Prometheus text exposition (prom.go).
//
// The registry is internal/trace one level up: inside one evaluation,
// the engine counts into a trace.Collector; across evaluations, each
// finished query's collector output drains into this registry. All
// registry state is atomics — an
// ObserveQuery on one goroutine never blocks a scrape on another, and a
// scrape takes a point-in-time snapshot rather than locking writers
// out. Counters therefore exactly partition the sum of the observed
// per-query Stats: every Observe adds precisely the query's own
// counters, and nothing else writes them.
package obs

import (
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"existdlog/internal/engine"
	"existdlog/internal/trace"
)

// Outcome classifies a finished query for the queries_total counter.
type Outcome string

const (
	// OutcomeOK is a query that ran to fixpoint.
	OutcomeOK Outcome = "ok"
	// OutcomePartial is a query that stopped early (deadline, cancel,
	// limit) but returned a sound partial result.
	OutcomePartial Outcome = "partial"
	// OutcomeError is a query that produced no result at all: parse
	// error, arity mismatch, internal error.
	OutcomeError Outcome = "error"
)

// outcomes lists every Outcome, sorted, so the exposition is stable
// from the first scrape on (all series pre-declared at zero).
var outcomes = []Outcome{OutcomeError, OutcomeOK, OutcomePartial}

// RuleCounters accumulate one rule's lifetime counters, keyed by the
// rule's source text (identical rules across optimized programs share a
// series, which is the useful aggregation for a fixed served program).
type RuleCounters struct {
	Firings    atomic.Int64
	Emitted    atomic.Int64
	Facts      atomic.Int64
	Duplicates atomic.Int64
	Probes     atomic.Int64
	Cuts       atomic.Int64
}

// Registry is a process-lifetime metrics registry. All methods are safe
// for concurrent use; the write paths are lock-free (the rule map uses
// sync.Map, whose read path after first insertion is atomic).
type Registry struct {
	queries [3]atomic.Int64 // indexed parallel to outcomes

	inFlight   atomic.Int64
	queueDepth atomic.Int64

	// Admission-control state (the serve overload path): requests
	// refused before evaluation, by reason and class; queued requests
	// shed at dequeue because their deadline had already expired; and
	// the degraded read-only gauge the WAL failure path flips.
	rejected [len(rejectReasonsArr) * len(rejectClassesArr)]atomic.Int64
	shed     atomic.Int64
	degraded atomic.Int64

	factsDerived  atomic.Int64
	derivations   atomic.Int64
	duplicateHits atomic.Int64
	joinProbes    atomic.Int64
	iterations    atomic.Int64
	rulesRetired  atomic.Int64
	ruleFirings   atomic.Int64

	cacheHits   atomic.Int64
	cacheMisses atomic.Int64
	cacheSize   atomic.Int64

	// Mutation-path state (the serve write path): mutations by op and
	// outcome, durable-store shape gauges, WAL and checkpoint activity.
	mutations  [4]atomic.Int64 // (update, retract) x (ok, error)
	storeSeq   atomic.Int64
	storeBase  atomic.Int64
	walRecords atomic.Int64
	walSyncs   atomic.Int64
	snapshots  atomic.Int64

	// Latency observes per-query wall time in seconds; Facts observes
	// per-query distinct derived facts; Deltas observes every per-pass
	// per-predicate delta size of every query, merged from the query's
	// trace.DeltaHistogram. BatchSize observes mutations per applied
	// batch (group commit batching), and Maintenance the batch's apply
	// wall time in seconds (clone, validate, WAL commit, install).
	Latency     *Histogram
	Facts       *Histogram
	Deltas      *Histogram
	BatchSize   *Histogram
	Maintenance *Histogram

	rules sync.Map // rule text -> *RuleCounters

	// build holds the binary's identity for the build_info gauge and
	// /healthz (SetBuildInfo); nil until set, which renders as empty
	// labels — keeping the golden scrape deterministic in tests that
	// never set it.
	build atomic.Pointer[BuildInfo]

	start time.Time
}

// BuildInfo identifies the running binary: rendered as the
// existdlog_build_info gauge's labels and on /healthz.
type BuildInfo struct {
	Version   string `json:"version"`
	GoVersion string `json:"goversion"`
	Commit    string `json:"commit"`
}

// SetBuildInfo publishes the binary's identity (serve calls this once
// at startup with the version, runtime.Version(), and the vcs revision
// from debug.ReadBuildInfo).
func (r *Registry) SetBuildInfo(version, goVersion, commit string) {
	r.build.Store(&BuildInfo{Version: version, GoVersion: goVersion, Commit: commit})
}

// BuildInfo returns the published identity (zero value until set).
func (r *Registry) BuildInfo() BuildInfo {
	if b := r.build.Load(); b != nil {
		return *b
	}
	return BuildInfo{}
}

// Uptime is the time since the registry was created — process uptime
// for all practical purposes, rendered as the
// existdlog_process_uptime_seconds gauge and on /healthz.
func (r *Registry) Uptime() time.Duration { return time.Since(r.start) }

// NewRegistry returns an empty registry with the default buckets.
func NewRegistry() *Registry {
	return &Registry{
		Latency:     NewHistogram(LatencyBuckets()...),
		Facts:       NewHistogram(SizeBuckets()...),
		Deltas:      NewHistogram(SizeBuckets()...),
		BatchSize:   NewHistogram(SizeBuckets()...),
		Maintenance: NewHistogram(LatencyBuckets()...),
		start:       time.Now(),
	}
}

func outcomeIndex(o Outcome) int {
	for i, x := range outcomes {
		if x == o {
			return i
		}
	}
	return 0 // unknown outcomes count as errors
}

// QueryStarted marks a query entering evaluation (the in-flight gauge).
// The returned func marks it done; call it exactly once.
func (r *Registry) QueryStarted() func() {
	r.inFlight.Add(1)
	var once sync.Once
	return func() { once.Do(func() { r.inFlight.Add(-1) }) }
}

// QueueEnter / QueueLeave bracket a request waiting for an evaluation
// slot (the queue-depth gauge).
func (r *Registry) QueueEnter() { r.queueDepth.Add(1) }
func (r *Registry) QueueLeave() { r.queueDepth.Add(-1) }

// CacheHit / CacheMiss count optimized-program cache lookups.
func (r *Registry) CacheHit()  { r.cacheHits.Add(1) }
func (r *Registry) CacheMiss() { r.cacheMisses.Add(1) }

// SetCacheEntries records the compiled-program cache's current size.
func (r *Registry) SetCacheEntries(n int) { r.cacheSize.Store(int64(n)) }

// rejectReasonsArr and rejectClassesArr index the rejected array; both
// are sorted so the exposition pre-declares every series at zero.
// Reasons: "degraded" (read-only mode refuses mutations), "draining"
// (shutdown refuses everything), "queue_full" (the class's admission
// queue is at capacity), "queue_timeout" (the request waited out the
// queue bound without getting a slot).
var (
	rejectReasonsArr = [...]string{"degraded", "draining", "queue_full", "queue_timeout"}
	rejectClassesArr = [...]string{"mutation", "query"}
)

func rejectIndex(reason, class string) int {
	ri, ci := 0, 0
	for i, r := range rejectReasonsArr {
		if r == reason {
			ri = i
		}
	}
	for i, c := range rejectClassesArr {
		if c == class {
			ci = i
		}
	}
	return ci*len(rejectReasonsArr) + ri
}

// Rejected counts one request refused before evaluation, by reason
// ("degraded", "draining", "queue_full", "queue_timeout") and class
// ("query" or "mutation"). Unknown labels fold into the first series
// rather than allocating new ones — the label sets are closed.
func (r *Registry) Rejected(reason, class string) {
	r.rejected[rejectIndex(reason, class)].Add(1)
}

// Shed counts one queued request discarded at dequeue because its
// deadline expired while it waited — it never started evaluating.
func (r *Registry) Shed() { r.shed.Add(1) }

// SetDegraded publishes the store's degraded read-only state (1 while
// mutations are refused because the WAL is failing, 0 otherwise).
func (r *Registry) SetDegraded(on bool) {
	var v int64
	if on {
		v = 1
	}
	r.degraded.Store(v)
}

// mutationOps and mutationOutcomes index the mutations array; both are
// sorted so the exposition pre-declares every series at zero.
var (
	mutationOps      = []string{"retract", "update"}
	mutationOutcomes = []string{"error", "ok"}
)

func mutationIndex(op string, ok bool) int {
	i := 0
	if op == "update" {
		i = 1
	}
	if ok {
		return i*2 + 1
	}
	return i * 2
}

// ObserveMutation counts one finished write request by op ("update" or
// "retract") and outcome.
func (r *Registry) ObserveMutation(op string, ok bool) {
	r.mutations[mutationIndex(op, ok)].Add(1)
}

// ObserveMaintenance records one applied batch: how many acknowledged
// mutations it carried and how long the apply took.
func (r *Registry) ObserveMaintenance(batched int, elapsed time.Duration) {
	r.BatchSize.Observe(float64(batched))
	r.Maintenance.Observe(elapsed.Seconds())
}

// SetStoreShape publishes the current store version's shape: its
// sequence number and its base fact count.
func (r *Registry) SetStoreShape(seq uint64, base int) {
	r.storeSeq.Store(int64(seq))
	r.storeBase.Store(int64(base))
}

// WALAppended / WALSynced / SnapshotWritten count the durability
// layer's activity.
func (r *Registry) WALAppended(records int) { r.walRecords.Add(int64(records)) }
func (r *Registry) WALSynced()              { r.walSyncs.Add(1) }
func (r *Registry) SnapshotWritten()        { r.snapshots.Add(1) }

// ObserveError records a query that produced no Result (parse error,
// arity mismatch, internal error) — only the outcome counter and the
// latency histogram move.
func (r *Registry) ObserveError(elapsed time.Duration) {
	r.queries[outcomeIndex(OutcomeError)].Add(1)
	r.Latency.Observe(elapsed.Seconds())
}

// ObserveQuery drains one finished evaluation into the registry: the
// aggregate Stats land in the lifetime counters and histograms, and the
// per-rule trace metrics (every evaluation keeps them; nil for a goal
// proved empty at compile time) land in the per-rule series. Partial results observe exactly their partial
// Stats, so the partition invariant holds on aborted queries too.
func (r *Registry) ObserveQuery(stats engine.Stats, tr *trace.Metrics, elapsed time.Duration, outcome Outcome) {
	r.queries[outcomeIndex(outcome)].Add(1)
	r.Latency.Observe(elapsed.Seconds())
	r.Facts.Observe(float64(stats.FactsDerived))

	r.factsDerived.Add(int64(stats.FactsDerived))
	r.derivations.Add(stats.Derivations)
	r.duplicateHits.Add(stats.DuplicateHits)
	r.joinProbes.Add(stats.JoinProbes)
	r.iterations.Add(int64(stats.Iterations))
	r.rulesRetired.Add(int64(stats.RulesRetired))

	if tr == nil {
		return
	}
	r.ruleFirings.Add(tr.TotalFirings())
	for i := range tr.Rules {
		rs := &tr.Rules[i]
		rc := r.rule(rs.Text)
		rc.Firings.Add(rs.Firings)
		rc.Emitted.Add(rs.Emitted)
		rc.Facts.Add(rs.Facts)
		rc.Duplicates.Add(rs.Duplicates)
		rc.Probes.Add(rs.JoinProbes)
		if rs.CutPass > 0 {
			rc.Cuts.Add(1)
		}
	}
	r.Deltas.Merge(tr.Deltas.Counts[:], float64(tr.Deltas.Sum))
}

// rule returns the counters for a rule text, creating them on first use.
func (r *Registry) rule(text string) *RuleCounters {
	if c, ok := r.rules.Load(text); ok {
		return c.(*RuleCounters)
	}
	c, _ := r.rules.LoadOrStore(text, &RuleCounters{})
	return c.(*RuleCounters)
}

// RuleSnapshot is one rule's lifetime counters at snapshot time.
type RuleSnapshot struct {
	Text       string
	Firings    int64
	Emitted    int64
	Facts      int64
	Duplicates int64
	Probes     int64
	Cuts       int64
}

// Snapshot is a point-in-time copy of every scalar in the registry, for
// rendering, logging a final flush, and the repl's stats command.
type Snapshot struct {
	Queries map[Outcome]int64

	InFlight   int64
	QueueDepth int64

	// Rejected maps "reason/class" (e.g. "queue_full/query") to its
	// counter; Shed counts expired-in-queue discards; Degraded is the
	// read-only gauge.
	Rejected map[string]int64
	Shed     int64
	Degraded int64

	FactsDerived  int64
	Derivations   int64
	DuplicateHits int64
	JoinProbes    int64
	Iterations    int64
	RulesRetired  int64
	RuleFirings   int64

	CacheHits   int64
	CacheMisses int64
	// CacheEntries is the compiled-program cache's current size.
	CacheEntries int64

	// Mutations maps "op/outcome" (e.g. "update/ok") to its counter.
	Mutations      map[string]int64
	StoreSeq       int64
	StoreBaseFacts int64
	WALRecords     int64
	WALSyncs       int64
	Snapshots      int64

	Latency     HistogramSnapshot
	Facts       HistogramSnapshot
	Deltas      HistogramSnapshot
	BatchSize   HistogramSnapshot
	Maintenance HistogramSnapshot

	Rules []RuleSnapshot // sorted by rule text

	Build  BuildInfo
	Start  time.Time
	Uptime time.Duration
}

// TotalQueries sums the outcome counters.
func (s *Snapshot) TotalQueries() int64 {
	var n int64
	for _, v := range s.Queries {
		n += v
	}
	return n
}

// Snapshot copies the registry. Scrapes render from the snapshot, so a
// slow writer (there are none — writes are a handful of atomic adds)
// can never hold up the scrape and vice versa.
func (r *Registry) Snapshot() *Snapshot {
	s := &Snapshot{
		Queries:        make(map[Outcome]int64, len(outcomes)),
		InFlight:       r.inFlight.Load(),
		QueueDepth:     r.queueDepth.Load(),
		Rejected:       make(map[string]int64, len(r.rejected)),
		Shed:           r.shed.Load(),
		Degraded:       r.degraded.Load(),
		FactsDerived:   r.factsDerived.Load(),
		Derivations:    r.derivations.Load(),
		DuplicateHits:  r.duplicateHits.Load(),
		JoinProbes:     r.joinProbes.Load(),
		Iterations:     r.iterations.Load(),
		RulesRetired:   r.rulesRetired.Load(),
		RuleFirings:    r.ruleFirings.Load(),
		CacheHits:      r.cacheHits.Load(),
		CacheMisses:    r.cacheMisses.Load(),
		CacheEntries:   r.cacheSize.Load(),
		Mutations:      make(map[string]int64, len(r.mutations)),
		StoreSeq:       r.storeSeq.Load(),
		StoreBaseFacts: r.storeBase.Load(),
		WALRecords:     r.walRecords.Load(),
		WALSyncs:       r.walSyncs.Load(),
		Snapshots:      r.snapshots.Load(),
		Latency:        r.Latency.Snapshot(),
		Facts:          r.Facts.Snapshot(),
		Deltas:         r.Deltas.Snapshot(),
		BatchSize:      r.BatchSize.Snapshot(),
		Maintenance:    r.Maintenance.Snapshot(),
		Build:          r.BuildInfo(),
		Start:          r.start,
		Uptime:         r.Uptime(),
	}
	for i, o := range outcomes {
		s.Queries[o] = r.queries[i].Load()
	}
	for ci, class := range rejectClassesArr {
		for ri, reason := range rejectReasonsArr {
			s.Rejected[reason+"/"+class] = r.rejected[ci*len(rejectReasonsArr)+ri].Load()
		}
	}
	for oi, op := range mutationOps {
		for ri, res := range mutationOutcomes {
			s.Mutations[op+"/"+res] = r.mutations[oi*2+ri].Load()
		}
	}
	r.rules.Range(func(k, v any) bool {
		c := v.(*RuleCounters)
		s.Rules = append(s.Rules, RuleSnapshot{
			Text:       k.(string),
			Firings:    c.Firings.Load(),
			Emitted:    c.Emitted.Load(),
			Facts:      c.Facts.Load(),
			Duplicates: c.Duplicates.Load(),
			Probes:     c.Probes.Load(),
			Cuts:       c.Cuts.Load(),
		})
		return true
	})
	sort.Slice(s.Rules, func(i, j int) bool { return s.Rules[i].Text < s.Rules[j].Text })
	return s
}
