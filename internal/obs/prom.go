package obs

import (
	"fmt"
	"io"
	"strconv"
	"strings"
)

// The exposition below is hand-rolled Prometheus text format
// (version 0.0.4): `# HELP` / `# TYPE` headers followed by samples,
// histograms as cumulative `_bucket{le=...}` series plus `_sum` and
// `_count`. Everything renders from a Snapshot in a fixed order with
// sorted labels, so for a deterministic query sequence the scrape is
// byte-identical — which is what the golden test in internal/server
// pins.

// escapeLabel escapes a label value per the exposition format:
// backslash, double quote, and newline.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatFloat renders a sample value or bucket bound the way Prometheus
// clients do: shortest representation that round-trips.
func formatFloat(f float64) string {
	return strconv.FormatFloat(f, 'g', -1, 64)
}

type promWriter struct {
	w   io.Writer
	err error
}

func (p *promWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *promWriter) header(name, help, typ string) {
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func (p *promWriter) sample(name, labels string, value int64) {
	if labels != "" {
		p.printf("%s{%s} %d\n", name, labels, value)
		return
	}
	p.printf("%s %d\n", name, value)
}

func (p *promWriter) histogram(name, help string, h HistogramSnapshot) {
	p.header(name, help, "histogram")
	cum := int64(0)
	for i, bound := range h.Bounds {
		cum += h.Counts[i]
		p.printf("%s_bucket{le=%q} %d\n", name, formatFloat(bound), cum)
	}
	cum += h.Counts[len(h.Bounds)]
	p.printf("%s_bucket{le=\"+Inf\"} %d\n", name, cum)
	p.printf("%s_sum %s\n", name, formatFloat(h.Sum))
	p.printf("%s_count %d\n", name, cum)
}

// WritePrometheus renders the registry as Prometheus text exposition.
// It snapshots first, so the scrape is internally consistent and never
// contends with observers beyond individual atomic loads.
func (r *Registry) WritePrometheus(w io.Writer) error {
	return r.Snapshot().WritePrometheus(w)
}

// WritePrometheus renders the snapshot as Prometheus text exposition.
func (s *Snapshot) WritePrometheus(w io.Writer) error {
	p := &promWriter{w: w}

	p.header("existdlog_queries_total", "Queries served, by outcome.", "counter")
	for _, o := range outcomes {
		p.sample("existdlog_queries_total", fmt.Sprintf("outcome=%q", string(o)), s.Queries[o])
	}

	p.header("existdlog_queries_in_flight", "Queries currently evaluating.", "gauge")
	p.sample("existdlog_queries_in_flight", "", s.InFlight)
	p.header("existdlog_queue_depth", "Requests waiting for an evaluation slot.", "gauge")
	p.sample("existdlog_queue_depth", "", s.QueueDepth)

	p.header("existdlog_rejected_total", "Requests refused before evaluation, by class and reason.", "counter")
	for _, class := range rejectClassesArr {
		for _, reason := range rejectReasonsArr {
			p.sample("existdlog_rejected_total",
				fmt.Sprintf("class=%q,reason=%q", class, reason), s.Rejected[reason+"/"+class])
		}
	}
	p.header("existdlog_shed_total", "Queued requests discarded at dequeue because their deadline had expired.", "counter")
	p.sample("existdlog_shed_total", "", s.Shed)
	p.header("existdlog_degraded", "1 while the store is in degraded read-only mode (WAL failing), else 0.", "gauge")
	p.sample("existdlog_degraded", "", s.Degraded)

	scalars := []struct {
		name, help string
		value      int64
	}{
		{"existdlog_facts_derived_total", "Distinct facts derived across all queries.", s.FactsDerived},
		{"existdlog_derivations_total", "Head tuples produced across all queries, duplicates included.", s.Derivations},
		{"existdlog_duplicate_hits_total", "Derivations rejected by duplicate elimination.", s.DuplicateHits},
		{"existdlog_join_probes_total", "Index probes performed during joins.", s.JoinProbes},
		{"existdlog_passes_total", "Fixpoint passes run across all queries.", s.Iterations},
		{"existdlog_rules_retired_total", "Rules retired at runtime by the boolean cut.", s.RulesRetired},
	}
	for _, c := range scalars {
		p.header(c.name, c.help, "counter")
		p.sample(c.name, "", c.value)
	}

	p.header("existdlog_optimize_cache_total", "Optimized-program cache lookups, by result.", "counter")
	p.sample("existdlog_optimize_cache_total", `result="hit"`, s.CacheHits)
	p.sample("existdlog_optimize_cache_total", `result="miss"`, s.CacheMisses)
	p.header("existdlog_compiled_cache_entries", "Compiled programs currently cached, one per distinct goal shape; bounded.", "gauge")
	p.sample("existdlog_compiled_cache_entries", "", s.CacheEntries)

	p.header("existdlog_mutations_total", "Write requests served, by op and outcome.", "counter")
	for _, op := range mutationOps {
		for _, res := range mutationOutcomes {
			p.sample("existdlog_mutations_total",
				fmt.Sprintf("op=%q,outcome=%q", op, res), s.Mutations[op+"/"+res])
		}
	}

	storeGauges := []struct {
		name, help string
		value      int64
	}{
		{"existdlog_store_seq", "Sequence number of the current store version.", s.StoreSeq},
		{"existdlog_store_base_facts", "Base facts in the current store version.", s.StoreBaseFacts},
	}
	for _, g := range storeGauges {
		p.header(g.name, g.help, "gauge")
		p.sample(g.name, "", g.value)
	}

	durability := []struct {
		name, help string
		value      int64
	}{
		{"existdlog_wal_records_total", "Mutation records appended to the write-ahead log.", s.WALRecords},
		{"existdlog_wal_syncs_total", "Group-commit fsyncs of the write-ahead log.", s.WALSyncs},
		{"existdlog_snapshots_total", "Durable store checkpoints written.", s.Snapshots},
	}
	for _, c := range durability {
		p.header(c.name, c.help, "counter")
		p.sample(c.name, "", c.value)
	}

	p.histogram("existdlog_query_duration_seconds", "Query latency in seconds.", s.Latency)
	p.histogram("existdlog_query_facts", "Distinct facts derived per query.", s.Facts)
	p.histogram("existdlog_delta_size", "Per-pass per-predicate delta sizes of every query.", s.Deltas)
	p.histogram("existdlog_applied_batch_size", "Mutations per applied batch.", s.BatchSize)
	p.histogram("existdlog_maintenance_duration_seconds", "Batch apply latency in seconds: clone, validate, WAL commit, install.", s.Maintenance)

	rulemetrics := []struct {
		name, help string
		get        func(*RuleSnapshot) int64
	}{
		{"existdlog_rule_firings", "Rule-version evaluations, by rule.", func(r *RuleSnapshot) int64 { return r.Firings }},
		{"existdlog_rule_emitted", "Head tuples produced, by rule, duplicates included.", func(r *RuleSnapshot) int64 { return r.Emitted }},
		{"existdlog_rule_facts", "Distinct new facts contributed, by rule.", func(r *RuleSnapshot) int64 { return r.Facts }},
		{"existdlog_rule_duplicates", "Emitted tuples rejected as duplicates, by rule.", func(r *RuleSnapshot) int64 { return r.Duplicates }},
		{"existdlog_rule_join_probes", "Index probes performed, by rule.", func(r *RuleSnapshot) int64 { return r.Probes }},
		{"existdlog_rule_cuts", "Queries in which the boolean cut retired the rule.", func(r *RuleSnapshot) int64 { return r.Cuts }},
	}
	for _, m := range rulemetrics {
		name := m.name + "_total"
		p.header(name, m.help, "counter")
		for i := range s.Rules {
			r := &s.Rules[i]
			p.sample(name, fmt.Sprintf("rule=%q", escapeLabel(r.Text)), m.get(r))
		}
	}

	p.header("existdlog_build_info", "Binary identity; the gauge is always 1, the labels carry the information.", "gauge")
	p.printf("existdlog_build_info{commit=%q,goversion=%q,version=%q} 1\n",
		escapeLabel(s.Build.Commit), escapeLabel(s.Build.GoVersion), escapeLabel(s.Build.Version))

	p.header("existdlog_process_start_time_seconds", "Unix time the registry was created.", "gauge")
	p.printf("existdlog_process_start_time_seconds %s\n",
		formatFloat(float64(s.Start.UnixNano())/1e9))
	p.header("existdlog_process_uptime_seconds", "Seconds since the registry was created.", "gauge")
	p.printf("existdlog_process_uptime_seconds %s\n", formatFloat(s.Uptime.Seconds()))
	return p.err
}
