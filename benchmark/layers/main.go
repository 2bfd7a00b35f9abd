// Command layers is Part 2 of the existdlog benchmark: it replays a
// fixed prefix of a workload's op stream in-process, with one span
// around each call into a layer's public function and the engine's own
// exact counters, and writes spans and per-layer metrics as JSON for
// Part 1 to merge with what it scrapes from the served child.
//
// It is the only part of the benchmark that imports the module under
// test. It is built and exec'd separately so that an API change which
// breaks it cannot take the end-to-end half down.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"time"

	"existdlog"
	"existdlog/benchmark/gen"
	"existdlog/internal/adorn"
	"existdlog/internal/ast"
	"existdlog/internal/deletion"
	"existdlog/internal/parser"
	"existdlog/internal/server"
	"existdlog/internal/uniform"
	"existdlog/internal/wal"
	"existdlog/internal/xform"
)

func main() {
	name := flag.String("workload", "", "workload to replay")
	seed := flag.Uint64("seed", 1, "workload seed")
	seconds := flag.Float64("seconds", 15, "length of the end-to-end run this replay is a prefix of")
	scale := flag.Float64("scale", 1, "workload scale")
	out := flag.String("out", "", "file to write metrics and spans to")
	tmp := flag.String("tmp", "", "directory for the WAL and checkpoint files")
	flag.Parse()

	w, err := gen.Build(*name, *seed, *scale)
	if err != nil {
		fatal(err)
	}
	r := &replay{w: w, seed: *seed, scale: *scale, tmp: *tmp, tr: gen.NewTrace(), cache: map[string]*compiled{}}
	r.ops = w.PrefixOps(*seconds, *scale)
	if err := r.run(); err != nil {
		fatal(err)
	}
	res := gen.LayersOutput{Metrics: r.metrics(), Attempted: r.attempted, Failed: r.failed, Spans: r.tr.Spans}
	if r.firstErr != nil {
		res.FirstErr = r.firstErr.Error()
	}
	data, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	if err := os.WriteFile(*out, data, 0o644); err != nil {
		fatal(err)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "layers:", err)
	os.Exit(2)
}

// compiled is one goal's optimized program, as the server caches it.
type compiled struct {
	prog *ast.Program
	goal ast.Atom
}

type replay struct {
	w     *gen.Workload
	seed  uint64
	scale float64
	tmp   string
	ops   int
	tr    *gen.Trace

	base  *ast.Program
	db    *existdlog.Database
	cache map[string]*compiled

	// Exact counters, summed over the replayed query requests and, for
	// the optimizer's, over the compiles made while counting is set.
	counting                              bool
	queries, answers                      int
	passes, facts, retired                int
	derivations, duplicates, probes       int64
	compiles, rulesIn, rulesOut, arityOut int
	rulesDeleted                          int
	mat                                   *existdlog.EvalResult
	log                                   *wal.Log
	seq                                   uint64
	walBytes                              int64
	factsParsed                           int
	rawFacts, optFacts                    int
	rawEval, optEval                      []float64
	handlerOps                            []float64 // per op: the sum of its requests' ServeHTTP time
	attempted, failed                     int
	firstErr                              error
}

// serverOptions are the evaluation options internal/server passes for
// every /query with the flight recorder on, which is how serve ships.
var serverOptions = existdlog.EvalOptions{BooleanCut: true, Trace: true, PassTimes: true, ReorderJoins: true}

// storeOptions are the ones the store maintains its materialization
// with: the whole program, no cut.
var storeOptions = existdlog.EvalOptions{ReorderJoins: true}

func (r *replay) fail(err error) {
	r.failed++
	if r.firstErr == nil {
		r.firstErr = err
	}
}

func (r *replay) run() error {
	// The served source, parsed the way server.New does it.
	var parsed *parser.Result
	for rep := 0; rep < 5; rep++ {
		sp := r.tr.Begin("parser.Parse/program", -1, -1)
		res, err := parser.Parse(r.w.Source)
		r.tr.End(sp)
		if err != nil {
			return fmt.Errorf("parsing the served source: %w", err)
		}
		parsed = res
	}
	r.factsParsed = len(parsed.Facts)
	base, db, err := existdlog.Parse(r.w.Source)
	if err != nil {
		return err
	}
	r.base, r.db = base, db

	if r.w.WAL {
		log, _, err := wal.Open(filepath.Join(r.tmp, "replay-wal.log"))
		if err != nil {
			return err
		}
		defer log.Close()
		r.log = log
	}

	// Layer by layer: set-up goals first (op -1), then the prefix.
	r.counting = true
	for _, op := range r.w.Setup {
		if err := r.replayOp(-1, op); err != nil {
			return err
		}
	}
	for i := 0; i < r.ops; i++ {
		if err := r.replayOp(i, r.w.Op(i)); err != nil {
			return err
		}
	}
	r.counting = false
	// A cache-hit workload compiles a handful of goals; compile them
	// again until each optimizer stage has a sample worth a median.
	for len(gen.Seconds(r.tr.Spans, "existdlog.Optimize")) < 20 {
		for _, op := range r.w.Setup {
			for _, req := range op.Requests {
				if req.Path == "/query" {
					goal, err := r.parseGoal(-1, -1, req.Goal)
					if err != nil {
						return err
					}
					if _, err := r.compile(-1, -1, goal); err != nil {
						return err
					}
				}
			}
		}
	}
	if r.w.WAL {
		for rep := 0; rep < 5; rep++ {
			sp := r.tr.Begin("wal.WriteSnapshotFile", -1, -1)
			err := wal.WriteSnapshotFile(filepath.Join(r.tmp, "replay-snapshot.db"), r.seq, r.db)
			r.tr.End(sp)
			if err != nil {
				return err
			}
		}
	}
	if r.w.Name == "exists_cut" {
		if err := r.optimizedAgainstRaw(); err != nil {
			return err
		}
	}
	if r.w.WAL {
		if st, err := os.Stat(filepath.Join(r.tmp, "replay-wal.log")); err == nil {
			r.walBytes = st.Size()
		}
	}
	// The same ops once more through the whole handler, no socket.
	return r.replayHandler()
}

// parseGoal does what the server's decode stage does with a goal text.
func (r *replay) parseGoal(parent, op int, text string) (ast.Atom, error) {
	if text == "" {
		return r.base.Query, nil
	}
	sp := r.tr.Begin("parser.Parse/goal", parent, op)
	res, err := parser.Parse("?- " + text + ".")
	r.tr.End(sp)
	if err != nil {
		return ast.Atom{}, err
	}
	return res.Program.Query, nil
}

// compile optimizes the served program for one goal, twice: once
// through the facade, which is what the server calls and what is
// evaluated afterwards, and once stage by stage in optimize.go's order
// with its default options, so that each stage has a span of its own.
func (r *replay) compile(parent, op int, goal ast.Atom) (*compiled, error) {
	prog := r.base.Clone()
	prog.Query = goal

	sp := r.tr.Begin("existdlog.Optimize", parent, op)
	res, err := existdlog.Optimize(prog, existdlog.DefaultOptions())
	r.tr.End(sp)
	if err != nil {
		return nil, err
	}

	pipe := r.tr.Begin("optimize.stages", parent, op)
	stage := func(name string, f func() error) error {
		sp := r.tr.Begin(name, pipe, op)
		defer r.tr.End(sp)
		return f()
	}
	cur := prog.Clone()
	err = stage("adorn.Adorn", func() (err error) { cur, err = adorn.Adorn(cur); return })
	if err == nil {
		err = stage("xform.ReduceInvariantArgument", func() error {
			for {
				reds := xform.FindInvariantReductions(cur)
				if len(reds) == 0 {
					return nil
				}
				t, err := xform.ReduceInvariantArgument(cur, reds[0].Base, reds[0].Pos)
				if err != nil {
					return err
				}
				cur = t
			}
		})
	}
	if err == nil {
		err = stage("xform.SplitComponents", func() (err error) { cur, err = xform.SplitComponents(cur); return })
	}
	if err == nil {
		err = stage("xform.PushProjections", func() (err error) { cur, err = xform.PushProjections(cur); return })
	}
	if err == nil {
		err = stage("xform.AddCoveringUnitRules", func() error { cur, _ = xform.AddCoveringUnitRules(cur); return nil })
	}
	if err == nil {
		err = stage("deletion.DeleteRules", func() (err error) {
			cur, _, err = deletion.DeleteRules(cur, deletion.Options{
				Mode:        deletion.Lemma53,
				UniformTest: uniform.RuleRedundant,
				LiteralTest: uniform.LiteralRedundant,
				Subsumption: true,
			})
			return
		})
	}
	r.tr.End(pipe)
	if err != nil {
		return nil, err
	}
	if len(cur.Rules) != len(res.Program.Rules) {
		return nil, fmt.Errorf("the stage-by-stage pipeline left %d rules for %s, existdlog.Optimize %d: benchmark/layers no longer mirrors optimize.go",
			len(cur.Rules), goal, len(res.Program.Rules))
	}

	if r.counting {
		r.compiles++
		r.rulesIn += len(prog.Rules)
		r.rulesOut += len(res.Program.Rules)
		r.rulesDeleted += len(res.Deletions)
		arity := map[string]int{}
		for _, rule := range res.Program.Rules {
			arity[rule.Head.Key()] = len(rule.Head.Args)
		}
		for _, n := range arity {
			r.arityOut += n
		}
	}
	return &compiled{prog: res.Program, goal: res.Program.Query}, nil
}

func (r *replay) replayOp(i int, op gen.Op) error {
	r.attempted++
	root := r.tr.Begin("replay.op", -1, i)
	defer r.tr.End(root)
	for _, req := range op.Requests {
		var err error
		if req.Path == "/query" {
			err = r.replayQuery(root, i, req)
		} else {
			err = r.replayMutation(root, i, req)
		}
		if err != nil {
			return err
		}
	}
	return nil
}

func (r *replay) replayQuery(parent, op int, req gen.Request) error {
	goal, err := r.parseGoal(parent, op, req.Goal)
	if err != nil {
		return err
	}
	c := r.cache[req.Goal]
	if c == nil {
		if c, err = r.compile(parent, op, goal); err != nil {
			return err
		}
		r.cache[req.Goal] = c
	}
	sp := r.tr.Begin("existdlog.EvalContext", parent, op)
	res, err := existdlog.EvalContext(context.Background(), c.prog, r.db, serverOptions)
	r.tr.End(sp)
	if err != nil {
		return err
	}
	sp = r.tr.Begin("Result.Answers", parent, op)
	rows := res.Answers(c.goal)
	r.tr.End(sp)

	if op >= 0 {
		r.queries++
		r.answers += len(rows)
		r.passes += res.Stats.Iterations
		r.facts += res.Stats.FactsDerived
		r.retired += res.Stats.RulesRetired
		r.derivations += res.Stats.Derivations
		r.duplicates += res.Stats.DuplicateHits
		r.probes += res.Stats.JoinProbes
	}
	if !gen.SameRows(rows, req.Want) {
		r.fail(fmt.Errorf("in-process %s: %d rows, the oracle has %d", req.Goal, len(rows), len(req.Want)))
	}
	return nil
}

// replayMutation does, through public calls, what the store's applier
// does with one acknowledged write: clone the base facts, apply,
// maintain the materialization, append, fsync.
func (r *replay) replayMutation(parent, op int, req gen.Request) error {
	res, err := parser.Parse(req.Fact + ".")
	if err != nil {
		return err
	}
	fact := res.Facts[0]
	row := make([]string, len(fact.Args))
	for i, t := range fact.Args {
		row[i] = t.Name
	}
	if r.mat == nil {
		sp := r.tr.Begin("existdlog.Eval/materialize", parent, op)
		r.mat, err = existdlog.Eval(r.base, r.db, storeOptions)
		r.tr.End(sp)
		if err != nil {
			return err
		}
	}
	sp := r.tr.Begin("Database.Clone", parent, op)
	next := r.db.Clone()
	r.tr.End(sp)
	delta := existdlog.NewDatabase()
	delta.Add(fact.Key(), row...)

	kind := wal.OpUpdate
	if req.Path == "/update" {
		next.Add(fact.Key(), row...)
		sp = r.tr.Begin("existdlog.Update", parent, op)
		r.mat, err = existdlog.Update(r.base, r.mat, delta, storeOptions)
	} else {
		kind = wal.OpRetract
		next.RemoveFacts(fact.Key(), [][]string{row})
		sp = r.tr.Begin("existdlog.Retract", parent, op)
		r.mat, err = existdlog.Retract(r.base, r.mat, delta, storeOptions)
	}
	r.tr.End(sp)
	if err != nil {
		return err
	}
	r.db = next

	r.seq++
	sp = r.tr.Begin("wal.Append", parent, op)
	// The server's records carry the request's 32-digit trace id too.
	err = r.log.Append(wal.Record{Seq: r.seq, Op: kind, Facts: []wal.Fact{{Key: fact.Key(), Row: row}},
		Trace: fmt.Sprintf("%032x", r.seq)})
	r.tr.End(sp)
	if err != nil {
		return err
	}
	sp = r.tr.Begin("wal.Sync", parent, op)
	err = r.log.Sync()
	r.tr.End(sp)
	return err
}

// optimizedAgainstRaw is the paper's Section 3.2 claim as a number: the
// facts derived and the time taken by the optimized program over those
// of the program as written, on a fact set a tenth the size.
func (r *replay) optimizedAgainstRaw() error {
	small, err := gen.Build("exists_cut", r.seed, r.scale*0.1)
	if err != nil {
		return err
	}
	prog, db, err := existdlog.Parse(small.Source)
	if err != nil {
		return err
	}
	opt, err := existdlog.Optimize(prog, existdlog.DefaultOptions())
	if err != nil {
		return err
	}
	for rep := 0; rep < 5; rep++ {
		sp := r.tr.Begin("existdlog.EvalContext/as-written", -1, -1)
		raw, err := existdlog.EvalContext(context.Background(), prog, db, serverOptions)
		r.rawEval = append(r.rawEval, r.tr.End(sp).Seconds())
		if err != nil {
			return err
		}
		sp = r.tr.Begin("existdlog.EvalContext/optimized", -1, -1)
		fast, err := existdlog.EvalContext(context.Background(), opt.Program, db, serverOptions)
		r.optEval = append(r.optEval, r.tr.End(sp).Seconds())
		if err != nil {
			return err
		}
		r.rawFacts, r.optFacts = raw.Stats.FactsDerived, fast.Stats.FactsDerived
		if !gen.SameRows(fast.Answers(opt.Program.Query), raw.Answers(prog.Query)) {
			r.fail(fmt.Errorf("optimized and as-written exists_cut programs disagree at 1/10 scale"))
		}
	}
	return nil
}

// replayHandler sends the same set-up ops and prefix through
// Server.Handler().ServeHTTP, configured as `serve` configures it by
// default, with no socket in between.
func (r *replay) replayHandler() error {
	cfg := server.Config{
		Source:         r.w.Source,
		Name:           "program.dl",
		DefaultTimeout: 10 * time.Second,
		MaxTimeout:     time.Minute,
		MaxConcurrent:  runtime.GOMAXPROCS(0),
		QueueTimeout:   time.Second,
		Logger:         slog.New(slog.NewJSONHandler(io.Discard, nil)),
		SnapshotEvery:  1024,
		FlightSize:     1024,
	}
	if r.w.WAL {
		cfg.WALDir = filepath.Join(r.tmp, "handler-wal")
	}
	srv, err := server.New(cfg)
	if err != nil {
		return err
	}
	defer srv.Close()
	h := srv.Handler()
	serve := func(i int, op gen.Op) {
		r.attempted++
		var total time.Duration
		for k, req := range op.Requests {
			hr := httptest.NewRequest("POST", req.Path, bytes.NewReader(req.Body()))
			rec := httptest.NewRecorder()
			sp := r.tr.Begin("Handler.ServeHTTP", -1, i)
			h.ServeHTTP(rec, hr)
			total += r.tr.End(sp)
			if _, err := req.Check(rec.Code, rec.Body.Bytes(), (i+k)%8 == 0); err != nil {
				r.fail(fmt.Errorf("in-process handler: %w", err))
				return
			}
		}
		if i >= 0 {
			r.handlerOps = append(r.handlerOps, total.Seconds())
		}
	}
	for _, op := range r.w.Setup {
		serve(-1, op)
	}
	for i := 0; i < r.ops; i++ {
		serve(i, r.w.Op(i))
	}
	return nil
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// metrics turns spans and counters into the named per-layer numbers. A
// layer this workload never calls reports 0.
func (r *replay) metrics() map[string]gen.Metric {
	spans := r.tr.Spans
	// Medians over the measured prefix only: set-up spans (op -1) pay
	// first-touch costs the steady state does not.
	var measured []gen.Span
	for _, s := range spans {
		if s.Op >= 0 {
			measured = append(measured, s)
		}
	}
	med := func(from []gen.Span, name string) float64 { return gen.Median(gen.Seconds(from, name)) }
	perOp := func(n float64) float64 { return ratio(n, float64(r.queries)) }

	eval := med(measured, "existdlog.EvalContext")
	program := med(spans, "parser.Parse/program")
	m := map[string]gen.Metric{
		"parser.goal_us":      gen.NewMetric(med(spans, "parser.Parse/goal")*1e6, "us"),
		"parser.program_ms":   gen.NewMetric(program*1e3, "ms"),
		"parser.facts_per_s":  gen.NewMetric(ratio(float64(r.factsParsed), program), "1/s"),
		"adorn.adorn_us":      gen.NewMetric(med(spans, "adorn.Adorn")*1e6, "us"),
		"xform.invariant_us":  gen.NewMetric(med(spans, "xform.ReduceInvariantArgument")*1e6, "us"),
		"xform.split_us":      gen.NewMetric(med(spans, "xform.SplitComponents")*1e6, "us"),
		"xform.project_us":    gen.NewMetric(med(spans, "xform.PushProjections")*1e6, "us"),
		"xform.unit_rules_us": gen.NewMetric(med(spans, "xform.AddCoveringUnitRules")*1e6, "us"),
		"deletion.delete_us":  gen.NewMetric(med(spans, "deletion.DeleteRules")*1e6, "us"),
		"optimize.total_us":   gen.NewMetric(med(spans, "existdlog.Optimize")*1e6, "us"),

		"optimize.rules_in":      gen.NewMetric(ratio(float64(r.rulesIn), float64(r.compiles)), "count"),
		"optimize.rules_out":     gen.NewMetric(ratio(float64(r.rulesOut), float64(r.compiles)), "count"),
		"optimize.arity_out":     gen.NewMetric(ratio(float64(r.arityOut), float64(r.compiles)), "count"),
		"deletion.rules_deleted": gen.NewMetric(ratio(float64(r.rulesDeleted), float64(r.compiles)), "count"),

		"engine.eval_ms":                gen.NewMetric(eval*1e3, "ms"),
		"engine.eval_us_per_pass":       gen.NewMetric(ratio(eval*1e6, perOp(float64(r.passes))), "us"),
		"engine.eval_ns_per_derivation": gen.NewMetric(ratio(eval*1e9, perOp(float64(r.derivations))), "ns"),
		"engine.answers_ms":             gen.NewMetric(med(measured, "Result.Answers")*1e3, "ms"),

		"engine.passes_per_op":        gen.NewMetric(perOp(float64(r.passes)), "count"),
		"engine.facts_per_op":         gen.NewMetric(perOp(float64(r.facts)), "count"),
		"engine.derivations_per_op":   gen.NewMetric(perOp(float64(r.derivations)), "count"),
		"engine.dup_ratio":            gen.NewMetric(ratio(float64(r.duplicates), float64(r.derivations)), "ratio"),
		"engine.probes_per_answer":    gen.NewMetric(ratio(float64(r.probes), float64(r.answers)), "count"),
		"engine.rules_retired_per_op": gen.NewMetric(perOp(float64(r.retired)), "count"),

		"engine.facts_opt_over_raw": gen.NewMetric(ratio(float64(r.optFacts), float64(r.rawFacts)), "ratio"),
		"engine.eval_opt_over_raw":  gen.NewMetric(ratio(gen.Median(r.optEval), gen.Median(r.rawEval)), "ratio"),

		"engine.clone_us":          gen.NewMetric(med(measured, "Database.Clone")*1e6, "us"),
		"engine.update_ms":         gen.NewMetric(med(measured, "existdlog.Update")*1e3, "ms"),
		"engine.retract_ms":        gen.NewMetric(med(measured, "existdlog.Retract")*1e3, "ms"),
		"engine.snapshot_write_ms": gen.NewMetric(med(spans, "wal.WriteSnapshotFile")*1e3, "ms"),
		"wal.append_us":            gen.NewMetric(med(measured, "wal.Append")*1e6, "us"),
		"wal.sync_ms":              gen.NewMetric(med(measured, "wal.Sync")*1e3, "ms"),
		"wal.bytes_per_mutation":   gen.NewMetric(ratio(float64(r.walBytes), float64(r.seq)), "B"),

		"server.handler_ms": gen.NewMetric(gen.Median(r.handlerOps)*1e3, "ms"),
	}
	return m
}
