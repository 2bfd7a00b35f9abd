package main

import (
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"

	"existdlog/benchmark/gen"
)

// runLayers execs Part 2. A missing or failing Part 2 is not an error of
// the run: the reason is returned for the report.
func runLayers(w *gen.Workload, o options, dir string) (*gen.LayersOutput, string) {
	if _, err := os.Stat(o.layers); err != nil {
		return nil, "benchmark/layers is not built (see .bench_build/layers.err)"
	}
	out := filepath.Join(dir, "layers.json")
	cmd := exec.Command(o.layers,
		"-workload", w.Name,
		"-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64),
		"-scale", strconv.FormatFloat(o.scale, 'g', -1, 64),
		"-out", out, "-tmp", dir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(childProcs()))
	if msg, err := cmd.CombinedOutput(); err != nil {
		return nil, fmt.Sprintf("benchmark/layers failed: %v: %s", err, firstLineOf(msg))
	}
	data, err := os.ReadFile(out)
	if err != nil {
		return nil, err.Error()
	}
	var lo gen.LayersOutput
	if err := json.Unmarshal(data, &lo); err != nil {
		return nil, "undecodable output of benchmark/layers: " + err.Error()
	}
	return &lo, ""
}

func firstLineOf(b []byte) string {
	line, _, _ := strings.Cut(strings.TrimSpace(string(b)), "\n")
	return line
}

// serverRequest is one entry of the child's flight recorder, as
// /debug/requests?json=1 serves it.
type serverRequest struct {
	Verb     string `json:"verb"`
	Duration int64  `json:"duration_ns"`
	Spans    []struct {
		Name   string `json:"name"`
		Parent int    `json:"parent"`
		Start  int64  `json:"start_ns"`
		End    int64  `json:"end_ns"`
	} `json:"spans"`
}

// heapStats are the runtime.MemStats lines /debug/pprof/heap?debug=1
// ends with.
type heapStats struct {
	totalAlloc, mallocs, heapAlloc, numGC, forcedGC float64
	pauses                                          []float64 // PauseNs, a ring indexed by (NumGC+255)%256
}

var memStatLine = regexp.MustCompile(`(?m)^# (\w+) = (.+)$`)

func (c *client) heap(base string, gc bool) (heapStats, error) {
	url := base + "/debug/pprof/heap?debug=1"
	if gc {
		url += "&gc=1"
	}
	var h heapStats
	data, err := c.get(url)
	if err != nil {
		return h, err
	}
	found := 0
	for _, m := range memStatLine.FindAllSubmatch(data, -1) {
		val := string(m[2])
		num, _ := strconv.ParseFloat(val, 64)
		found++
		switch string(m[1]) {
		case "TotalAlloc":
			h.totalAlloc = num
		case "Mallocs":
			h.mallocs = num
		case "HeapAlloc":
			h.heapAlloc = num
		case "NumGC":
			h.numGC = num
		case "NumForcedGC":
			h.forcedGC = num
		case "PauseNs":
			for _, f := range strings.Fields(strings.Trim(val, "[]")) {
				ns, _ := strconv.ParseFloat(f, 64)
				h.pauses = append(h.pauses, ns)
			}
		default:
			found--
		}
	}
	if found < 6 {
		return h, fmt.Errorf("GET %s: only %d of 6 MemStats lines found", url, found)
	}
	return h, nil
}

// meanPauseMS is the mean stop-the-world pause of the collections
// between two scrapes (at most the 256 the runtime remembers).
func meanPauseMS(before, after heapStats) float64 {
	n := int(after.numGC - before.numGC)
	if n <= 0 || len(after.pauses) == 0 {
		return 0
	}
	n = min(n, len(after.pauses))
	total := 0.0
	for k := 0; k < n; k++ {
		gc := int(after.numGC) - k // 1-based number of the collection
		total += after.pauses[(gc+len(after.pauses)-1)%len(after.pauses)]
	}
	return total / float64(n) / 1e6
}

var counterLine = regexp.MustCompile(`(?m)^(existdlog_\w+(?:\{[^}]*\})?) ([0-9.eE+-]+)$`)

// counters scrapes /metrics into name{labels} -> value.
func (c *client) counters(base string) (map[string]float64, error) {
	data, err := c.get(base + "/metrics")
	if err != nil {
		return nil, err
	}
	out := map[string]float64{}
	for _, m := range counterLine.FindAllSubmatch(data, -1) {
		out[string(m[1])], _ = strconv.ParseFloat(string(m[2]), 64)
	}
	return out, nil
}

func share(part, whole float64) float64 {
	if whole == 0 {
		return 0
	}
	return part / whole
}

// runTraced is the traced run: Part 2's in-process replay, then one
// served pass of the same prefix with the child's own instruments read
// around and during it. Per-layer metrics only; a layer the workload
// never enters reports 0.
func runTraced(w *gen.Workload, o options) (res result, err error) {
	dir, err := workDir(o, w)
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	// Every per-layer metric is printed on every run; those nothing
	// below measures (Part 2 did not build, say) stay 0.
	c, err := readContract()
	if err != nil {
		return res, err
	}
	res.Metrics = map[string]metric{}
	for _, m := range c.PerLayer {
		res.Metrics[m.Name] = gen.NewMetric(0, m.Unit)
	}
	lo, why := runLayers(w, o, dir)
	if lo != nil {
		for name, m := range lo.Metrics {
			res.Metrics[name] = m
		}
		res.Attempted, res.Failed = lo.Attempted, lo.Failed
		if lo.FirstErr != "" {
			fmt.Printf("  first in-process failure: %s\n", lo.FirstErr)
		}
	} else {
		fmt.Printf("  in-process layer metrics are 0: %s\n", why)
	}

	s, _, err := coldStart(w, o, dir, newSpeedometer())
	if err != nil {
		return res, err
	}
	defer func() { s.stop() }()
	warmN := warmupOps(w, o)
	for i := 0; i < warmN; i++ {
		s.exec(w.Op(i), true)
	}
	// The same ops Part 2 replays.
	n := w.PrefixOps(o.seconds, o.scale)

	// Pass A: nothing of the benchmark's runs beside the ops. The
	// child's heap statistics and counters are read before and after.
	heap0, err := s.cl.heap(s.child.base, false)
	if err != nil {
		return res, err
	}
	count0, err := s.cl.counters(s.child.base)
	if err != nil {
		return res, err
	}
	bytes0, verify0, meter0 := s.bytes, s.verify, s.meter.spent
	startA := time.Now()
	a, err := s.measure(warmN, n, 0, 0, nil)
	wallA := time.Since(startA)
	if err != nil {
		return res, err
	}
	bytesA, idleA := s.bytes-bytes0, s.verify-verify0+s.meter.spent-meter0
	heap1, err := s.cl.heap(s.child.base, true)
	if err != nil {
		return res, err
	}
	count1, err := s.cl.counters(s.child.base)
	if err != nil {
		return res, err
	}
	hwm, err := s.child.memKB("VmHWM")
	if err != nil {
		return res, err
	}
	if len(a.lats) == 0 {
		return res, fmt.Errorf("no op of the served pass succeeded: %v", s.firstErr)
	}

	// Pass B: the same again, with a span around every request and the
	// child's flight recorder paged every few ops.
	tr := gen.NewTrace()
	var trees []serverRequest
	perOp := len(w.Op(0).Requests)
	const page = 16 // ops between two reads of /debug/requests
	var pageErr error
	fetch := func(ops int) {
		data, err := s.cl.get(fmt.Sprintf("%s/debug/requests?json=1&limit=%d", s.child.base, ops*perOp))
		var got struct {
			Requests []serverRequest `json:"requests"`
		}
		if err == nil {
			err = json.Unmarshal(data, &got)
		}
		if err != nil {
			pageErr = err
			return
		}
		// Newest first on the wire; keep op order.
		for i := len(got.Requests) - 1; i >= 0; i-- {
			trees = append(trees, got.Requests[i])
		}
	}
	b, err := s.measure(warmN+n, n, 0, 0, func(i int, lat time.Duration, ok bool) {
		// The span is as long as the op's latency: the time between an
		// op's requests, when answers are checked, is not in it.
		end := tr.Now()
		tr.Record("client.op", -1, i, end-int64(lat), end)
		if (i+1)%page == 0 || i == n-1 {
			fetch(i%page + 1)
		}
	})
	if err != nil {
		return res, err
	}
	if pageErr != nil {
		return res, fmt.Errorf("paging /debug/requests: %w", pageErr)
	}

	var recovery time.Duration
	if w.Durable != nil {
		if recovery, err = s.crashAndRecover(o.bin); err != nil {
			return res, err
		}
	}
	res.Attempted += s.attempted
	res.Failed += s.failed
	res.Correct = res.Failed == 0
	if s.firstErr != nil {
		fmt.Printf("  first served failure: %v\n", s.firstErr)
	}

	// What the child's own span trees say, by verb.
	stage := map[string][]float64{}
	var queryDur, mutationDur []float64
	var respondSum, querySum float64
	for _, t := range trees {
		d := float64(t.Duration) / 1e9
		if t.Verb == "query" {
			queryDur = append(queryDur, d)
			querySum += d
		} else {
			mutationDur = append(mutationDur, d)
		}
		for _, sp := range t.Spans {
			name := sp.Name
			if sp.Parent >= 0 {
				if t.Spans[sp.Parent].Name != "store" {
					continue // per-pass spans beneath eval
				}
				name = "store." + name
			} else if t.Verb != "query" {
				continue // a mutation's decode and queue are not the query stages
			}
			sec := float64(sp.End-sp.Start) / 1e9
			stage[name] = append(stage[name], sec)
			if name == "respond" {
				respondSum += sec
			}
		}
	}
	hangTrees(tr, trees, perOp)

	ops := float64(a.ops)
	latA, latB := seconds(a.lats), seconds(b.lats)
	pct, tailVal := tail(latA)
	mutations := delta(count0, count1, `existdlog_mutations_total{op="update",outcome="ok"}`) +
		delta(count0, count1, `existdlog_mutations_total{op="retract",outcome="ok"}`)
	hits := delta(count0, count1, `existdlog_optimize_cache_total{result="hit"}`)
	misses := delta(count0, count1, `existdlog_optimize_cache_total{result="miss"}`)
	// The part of an op's latency that no server span covers: per op of
	// the traced pass, what the client saw minus what the child's
	// flight recorder says its requests took.
	var gaps []float64
	if len(b.lats) == b.ops && len(trees) == b.ops*perOp {
		for i, lat := range b.lats {
			inside := int64(0)
			for _, t := range trees[i*perOp : (i+1)*perOp] {
				inside += t.Duration
			}
			gaps = append(gaps, (lat - time.Duration(inside)).Seconds())
		}
	}
	for name, m := range map[string]metric{
		"server.stage.decode_us":  gen.NewMetric(median(stage["decode"])*1e6, "us"),
		"server.stage.compile_us": gen.NewMetric(median(stage["compile"])*1e6, "us"),
		"server.stage.queue_us":   gen.NewMetric(median(stage["queue"])*1e6, "us"),
		"server.stage.eval_ms":    gen.NewMetric(median(stage["eval"])*1e3, "ms"),
		"server.stage.respond_ms": gen.NewMetric(median(stage["respond"])*1e3, "ms"),
		"server.respond_share":    gen.NewMetric(share(respondSum, querySum), "ratio"),

		"server.store.applier_queue_us": gen.NewMetric(median(stage["store.applier_queue"])*1e6, "us"),
		"server.store.maintain_ms":      gen.NewMetric(median(stage["store.maintain"])*1e3, "ms"),
		"server.store.wal_append_us":    gen.NewMetric(median(stage["store.wal_append"])*1e6, "us"),
		"server.store.wal_fsync_ms":     gen.NewMetric(median(stage["store.wal_fsync"])*1e3, "ms"),
		"server.store.install_us":       gen.NewMetric(median(stage["store.install"])*1e6, "us"),
		"server.query.p50_ms":           gen.NewMetric(median(queryDur)*1e3, "ms"),
		"server.mutation.p50_ms":        gen.NewMetric(median(mutationDur)*1e3, "ms"),
		"server.reevals_per_mutation":   gen.NewMetric(share(delta(count0, count1, "existdlog_reevals_total"), mutations), "ratio"),

		"server.cache_hit_ratio":    gen.NewMetric(share(hits, hits+misses), "ratio"),
		"server.response_kb_per_op": gen.NewMetric(float64(bytesA)/1024/ops, "kB"),

		"server.alloc_kb_per_op": gen.NewMetric((heap1.totalAlloc-heap0.totalAlloc)/1024/ops, "kB"),
		"server.allocs_per_op":   gen.NewMetric((heap1.mallocs-heap0.mallocs)/ops, "count"),
		"server.gc_per_op":       gen.NewMetric((heap1.numGC-heap0.numGC-(heap1.forcedGC-heap0.forcedGC))/ops, "count"),
		"server.gc_pause_ms":     gen.NewMetric(meanPauseMS(heap0, heap1), "ms"),
		"server.live_heap_mb":    gen.NewMetric(heap1.heapAlloc/(1<<20), "MB"),
		"server.peak_rss_mb":     gen.NewMetric(hwm/1024, "MB"),

		"wal.syncs_per_mutation": gen.NewMetric(share(delta(count0, count1, "existdlog_wal_syncs_total"), mutations), "ratio"),
		"wal.checkpoints":        gen.NewMetric(delta(count0, count1, "existdlog_snapshots_total"), "count"),
		"wal.recovery_s":         gen.NewMetric(recovery.Seconds(), "s"),

		"client.gap_ms":  gen.NewMetric(median(gaps)*1e3, "ms"),
		"client.tail_ms": gen.NewMetric(tailVal*1e3, "ms"),
		"client.max_ms":  gen.NewMetric(sorted(latA)[len(latA)-1]*1e3, "ms"),
		// What the harness itself spends per op between answers: making
		// the op and its bodies, bookkeeping, reading /proc.
		"bench.loop_overhead_us": gen.NewMetric((wallA.Seconds()-sum(latA)-idleA.Seconds())/ops*1e6, "us"),
		// What the end-to-end half would scale the untraced pass's times
		// by: below 1 when the machine ran slower than the reference
		// unit. The per-layer times of this run are as measured.
		"bench.time_scale": gen.NewMetric(a.scale, "ratio"),
		// Median latency of the traced pass over the untraced one's,
		// each at reference machine speed (medians: with a few dozen ops
		// a pass, one stall would swing a mean by more than the overhead).
		"bench.trace_overhead_share": gen.NewMetric((median(latB)*b.scale)/(median(latA)*a.scale)-1, "ratio"),
	} {
		res.Metrics[name] = m
	}

	fmt.Printf("  served pass: %d ops untraced, %d traced with %d server span trees; client.tail_ms is p%.1f\n",
		a.ops, b.ops, len(trees), pct)
	file, err := writeSpans(w, o, lo, tr)
	if err != nil {
		return res, err
	}
	fmt.Printf("  spans written to %s\n", file)
	if lo != nil {
		printSelfTimes(lo.Spans)
	}
	return res, nil
}

func delta(before, after map[string]float64, name string) float64 {
	return after[name] - before[name]
}

// hangTrees places each of the child's span trees beneath the client
// span of the op it served. The two clocks are not synchronised: the
// requests of an op share its span end to end, each server tree centred
// in its share, and a tree's inner offsets are the server's own.
func hangTrees(tr *gen.Trace, trees []serverRequest, perOp int) {
	clientOps := len(tr.Spans)
	for k, t := range trees {
		op := k / perOp
		if op >= clientOps {
			break
		}
		parent := tr.Spans[op]
		slot := (parent.End - parent.Start) / int64(perOp)
		start := parent.Start + int64(k%perOp)*slot + max(0, (slot-t.Duration)/2)
		root := tr.Record("server."+t.Verb, op, op, start, start+t.Duration)
		for _, sp := range t.Spans {
			at := root
			if sp.Parent >= 0 {
				at = root + 1 + sp.Parent
			}
			tr.Record(sp.Name, at, op, start+sp.Start, start+sp.End)
		}
	}
}

// spanFile is what a traced run leaves behind.
type spanFile struct {
	Workload string `json:"workload"`
	Seed     uint64 `json:"seed"`
	Digest   string `json:"digest"`
	// InProcess are Part 2's spans, Served the client's with the
	// child's own trees beneath. Each list has its own clock.
	InProcess []gen.Span `json:"in_process"`
	Served    []gen.Span `json:"served"`
}

func writeSpans(w *gen.Workload, o options, lo *gen.LayersOutput, served *gen.Trace) (string, error) {
	f := spanFile{Workload: w.Name, Seed: o.seed, Digest: fmt.Sprintf("%016x", w.Digest), Served: served.Spans}
	if lo != nil {
		f.InProcess = lo.Spans
	}
	data, err := json.Marshal(f)
	if err != nil {
		return "", err
	}
	dir := filepath.Join(filepath.Dir(o.tmp), "spans")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", w.Name, o.seed))
	return path, os.WriteFile(path, data, 0o644)
}

// printSelfTimes shows where the in-process replay's time went: per
// span name, total time and the part not covered by child spans.
func printSelfTimes(spans []gen.Span) {
	var measured []gen.Span
	index := map[int]int{}
	for i, s := range spans {
		if s.Op >= 0 {
			index[i] = len(measured)
			measured = append(measured, s)
		}
	}
	for i := range measured {
		if p, ok := index[measured[i].Parent]; ok {
			measured[i].Parent = p
		} else {
			measured[i].Parent = -1
		}
	}
	fmt.Println("  in-process self time over the replayed prefix:")
	for _, lt := range gen.SelfTimes(measured) {
		fmt.Printf("    %-32s %7d calls %10.1f ms total %10.1f ms self\n",
			lt.Name, lt.Calls, lt.Total.Seconds()*1e3, lt.Self.Seconds()*1e3)
	}
}
