package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"runtime"
	"runtime/debug"
	"syscall"
	"time"

	"existdlog/internal/obs"
	"existdlog/internal/server"
)

// cmdServe runs the long-running query service: a program is loaded
// once and HTTP clients evaluate goals against it (POST /query) or
// mutate its base facts (POST /update, POST /retract), with Prometheus
// metrics (/metrics), health and readiness probes (/healthz, /readyz),
// and the stdlib profiler (/debug/pprof). With -wal, acknowledged
// mutations are durable: they are replayed from the fsync'd log (and
// periodic checkpoints) on restart. Logs are structured JSON on stderr.
// SIGINT/SIGTERM drain gracefully: readiness flips to 503, in-flight
// queries get a grace period, stragglers are aborted into sound partial
// results, and a final metrics snapshot is logged.
func cmdServe(args []string) error {
	fs := flag.NewFlagSet("serve", flag.ExitOnError)
	addr := fs.String("addr", "127.0.0.1:8347", "listen address")
	noopt := fs.Bool("noopt", false, "serve the program as written (skip the optimizer)")
	timeout := fs.Duration("timeout", 10*time.Second, "default per-query evaluation timeout (0 = unbounded)")
	maxTimeout := fs.Duration("max-timeout", time.Minute, "cap on client-requested query timeouts (0 = no cap)")
	maxConcurrent := fs.Int("max-concurrent", runtime.GOMAXPROCS(0), "concurrently evaluating queries; excess requests queue")
	maxQueue := fs.Int("max-queue", 0, "per-class admission queue capacity; overflow is rejected with 429 (0 = 16x max-concurrent)")
	queueTimeout := fs.Duration("queue-timeout", time.Second, "max time a request may wait queued for an evaluation slot before 503")
	maxFacts := fs.Int("max-facts", 0, "per-query derived fact limit (0 = unlimited)")
	drainGrace := fs.Duration("drain", 5*time.Second, "shutdown grace before in-flight queries are aborted")
	walDir := fs.String("wal", "", "directory for the durable write-ahead log and checkpoints (empty = mutations are memory-only)")
	snapshotEvery := fs.Int("snapshot-every", 1024, "checkpoint the store after this many logged mutations (0 = never; needs -wal)")
	flightSize := fs.Int("flight-recorder", 1024, "completed requests kept in the /debug/requests ring buffer (0 = tracing off)")
	slowQuery := fs.Duration("slow-query", 0, "log a structured span breakdown for any request slower than this (0 = off)")
	fs.Parse(args)
	if fs.NArg() != 1 {
		return fmt.Errorf("serve: expected one program file")
	}
	path := fs.Arg(0)
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}

	logger := slog.New(slog.NewJSONHandler(os.Stderr, nil))
	srv, err := server.New(server.Config{
		Source:         string(src),
		Name:           path,
		NoOptimize:     *noopt,
		DefaultTimeout: *timeout,
		MaxTimeout:     *maxTimeout,
		MaxConcurrent:  *maxConcurrent,
		MaxQueue:       *maxQueue,
		QueueTimeout:   *queueTimeout,
		MaxFacts:       *maxFacts,
		Logger:         logger,
		WALDir:         *walDir,
		SnapshotEvery:  *snapshotEvery,
		FlightSize:     *flightSize,
		SlowQuery:      *slowQuery,
	})
	if err != nil {
		return err
	}
	defer srv.Close()
	srv.Registry().SetBuildInfo(buildVersion(), runtime.Version(), buildCommit())

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	rules, facts, goal := srv.Info()
	logger.LogAttrs(context.Background(), slog.LevelInfo, "serving",
		slog.String("program", path),
		slog.Int("rules", rules),
		slog.Int("facts", facts),
		slog.String("default_goal", goal),
		slog.String("addr", ln.Addr().String()),
		slog.Int("max_concurrent", *maxConcurrent),
		slog.String("wal", *walDir),
		slog.Uint64("seq", srv.Store().Current().Seq))

	httpSrv := &http.Server{Handler: srv.Handler()}
	errc := make(chan error, 1)
	go func() { errc <- httpSrv.Serve(ln) }()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	select {
	case err := <-errc:
		return err
	case <-ctx.Done():
	}
	stop() // a second signal kills the process the default way

	logger.LogAttrs(context.Background(), slog.LevelInfo, "shutdown signal, draining",
		slog.Duration("grace", *drainGrace))
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainGrace)
	if err := srv.Drain(drainCtx); err != nil {
		logger.LogAttrs(context.Background(), slog.LevelWarn, "drain grace expired, aborted in-flight queries",
			slog.String("error", err.Error()))
	}
	cancel()
	shutCtx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	if err := httpSrv.Shutdown(shutCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		logger.LogAttrs(context.Background(), slog.LevelWarn, "http shutdown",
			slog.String("error", err.Error()))
	}

	logFinalSnapshot(logger, srv.Registry().Snapshot())
	return nil
}

// buildVersion resolves the module version Go embedded at build time;
// source builds report "devel".
func buildVersion() string {
	if bi, ok := debug.ReadBuildInfo(); ok && bi.Main.Version != "" && bi.Main.Version != "(devel)" {
		return bi.Main.Version
	}
	return "devel"
}

// buildCommit resolves the VCS revision Go embedded at build time,
// shortened to 12 characters; builds outside a checkout report "unknown".
func buildCommit() string {
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				if len(s.Value) > 12 {
					return s.Value[:12]
				}
				return s.Value
			}
		}
	}
	return "unknown"
}

// logFinalSnapshot flushes the lifetime metrics as one structured log
// line — the flight recorder's last word when the scrape endpoint goes
// away with the process.
func logFinalSnapshot(logger *slog.Logger, snap *obs.Snapshot) {
	logger.LogAttrs(context.Background(), slog.LevelInfo, "final metrics snapshot",
		slog.Int64("queries_total", snap.TotalQueries()),
		slog.Int64("queries_ok", snap.Queries[obs.OutcomeOK]),
		slog.Int64("queries_partial", snap.Queries[obs.OutcomePartial]),
		slog.Int64("queries_error", snap.Queries[obs.OutcomeError]),
		slog.Int64("facts_derived", snap.FactsDerived),
		slog.Int64("rule_firings", snap.RuleFirings),
		slog.Int64("derivations", snap.Derivations),
		slog.Int64("duplicate_hits", snap.DuplicateHits),
		slog.Int64("join_probes", snap.JoinProbes),
		slog.Int64("passes", snap.Iterations),
		slog.Int64("cache_hits", snap.CacheHits),
		slog.Int64("cache_misses", snap.CacheMisses),
		slog.Int64("updates_ok", snap.Mutations["update/ok"]),
		slog.Int64("retracts_ok", snap.Mutations["retract/ok"]),
		slog.Int64("wal_records", snap.WALRecords),
		slog.Int64("checkpoints", snap.Snapshots),
		slog.Duration("latency_p50", snap.Latency.QuantileDuration(0.50)),
		slog.Duration("latency_p95", snap.Latency.QuantileDuration(0.95)),
		slog.Duration("latency_p99", snap.Latency.QuantileDuration(0.99)),
		slog.Duration("uptime", time.Since(snap.Start)))
}
