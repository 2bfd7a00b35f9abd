package main

import (
	"bufio"
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"time"

	"existdlog"
	"existdlog/internal/obs"
	"existdlog/internal/parser"
	"existdlog/internal/prepare"
	"existdlog/internal/server"
)

// cmdRepl runs an interactive session: rules and facts accumulate, and
// each "?- goal." is prepared as `run` prepares it and evaluated on the
// spot. Ctrl-C cancels an in-flight query (printing its partial result);
// when no query is running, a second Ctrl-C in a row exits.
func cmdRepl(args []string) error {
	fs := flag.NewFlagSet("repl", flag.ExitOnError)
	noopt := fs.Bool("noopt", false, "evaluate queries without optimizing")
	serverURL := fs.String("server", "", "base URL of a running `existdlog serve` instance; :add and :retract post to it")
	fs.Parse(args)
	sess := &replSession{out: os.Stdout, optimize: !*noopt, server: strings.TrimRight(*serverURL, "/")}
	for _, path := range fs.Args() {
		if err := sess.loadFile(path); err != nil {
			return err
		}
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt)
	defer signal.Stop(sig)
	go func() {
		armed := false
		for range sig {
			if sess.Interrupt() {
				armed = false // the Ctrl-C went to the query, not the repl
				continue
			}
			if armed {
				fmt.Fprintln(sess.out)
				os.Exit(0)
			}
			armed = true
			fmt.Fprintln(sess.out, "\n(press Ctrl-C again to exit)")
		}
	}()

	fmt.Fprintln(sess.out, "existdlog repl — rules and facts accumulate; '?- goal.' queries; Ctrl-C cancels a query; :help for commands")
	return sess.run(os.Stdin)
}

type replSession struct {
	out       io.Writer
	optimize  bool
	server    string // base URL of a served instance; "" = purely local
	rules     []string
	facts     []string
	factCount int // parsed facts (a line may hold several)

	// lastProg is the prepared program of the last query, for :optimize;
	// lastResult is its evaluation, for the why command. Queries always
	// track provenance so why can reconstruct derivation trees.
	lastProg   *existdlog.Program
	lastResult *existdlog.EvalResult

	// reg accumulates session metrics across queries — the same
	// registry type that backs `existdlog serve`'s /metrics — printed
	// by the :stats command. Lazily created so zero-value sessions
	// (tests construct them directly) work.
	reg *obs.Registry

	mu          sync.Mutex
	cancelQuery context.CancelFunc // non-nil while a query or served mutation is in flight
}

// registry returns the session's metrics registry, creating it on first
// use.
func (s *replSession) registry() *obs.Registry {
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	return s.reg
}

// Interrupt cancels the in-flight query or served mutation, if any, and
// reports whether there was one to cancel.
func (s *replSession) Interrupt() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cancelQuery == nil {
		return false
	}
	s.cancelQuery()
	return true
}

func (s *replSession) setCancel(c context.CancelFunc) {
	s.mu.Lock()
	s.cancelQuery = c
	s.mu.Unlock()
}

func (s *replSession) run(in io.Reader) error {
	sc := bufio.NewScanner(in)
	fmt.Fprint(s.out, "> ")
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if err := s.handle(line); err != nil {
			if err == errReplQuit {
				return nil
			}
			fmt.Fprintln(s.out, "error:", err)
		}
		fmt.Fprint(s.out, "> ")
	}
	fmt.Fprintln(s.out)
	return sc.Err()
}

var errReplQuit = fmt.Errorf("quit")

func (s *replSession) handle(line string) error {
	switch {
	case line == "" || strings.HasPrefix(line, "%"):
		return nil
	case line == ":quit" || line == ":q":
		return errReplQuit
	case line == ":help":
		fmt.Fprint(s.out, `  p(X) :- q(X,Y).   add a rule
  q(1,2).           add a fact
  ?- p(X).          run a query, prepared as 'existdlog run' prepares it (optimized unless -noopt)
  :add q(3,4).      assert a base fact — on the connected server with -server, else locally
  :retract q(1,2).  retract a base fact (the server also retracts what it alone supported)
  :load FILE        load rules and facts from a file
  :rules            list the current rules
  :facts            list the current facts
  :optimize         show the program the last query evaluated
  :stats            cumulative session metrics (queries, facts, firings, latency)
  why p(1,2)        derivation tree of a fact of the program the last query evaluated
                    (adorned under optimization, e.g. a@nn(1,2); a chain-rewritten
                    goal derives only seeded predicates, which why cannot name)
  :clear            forget everything
  :quit             leave
`)
		return nil
	case line == ":rules":
		for _, r := range s.rules {
			fmt.Fprintln(s.out, r)
		}
		return nil
	case line == ":facts":
		for _, f := range s.facts {
			fmt.Fprintln(s.out, f)
		}
		return nil
	case line == ":clear":
		s.rules, s.facts, s.factCount = nil, nil, 0
		s.lastProg, s.lastResult = nil, nil
		return nil
	case strings.HasPrefix(line, ":why "):
		return s.why(strings.TrimSpace(strings.TrimPrefix(line, ":why ")))
	case strings.HasPrefix(line, "why "):
		return s.why(strings.TrimSpace(strings.TrimPrefix(line, "why ")))
	case strings.HasPrefix(line, ":add "):
		return s.mutate("update", strings.TrimSpace(strings.TrimPrefix(line, ":add ")))
	case strings.HasPrefix(line, ":retract "):
		return s.mutate("retract", strings.TrimSpace(strings.TrimPrefix(line, ":retract ")))
	case strings.HasPrefix(line, ":load "):
		return s.loadFile(strings.TrimSpace(strings.TrimPrefix(line, ":load ")))
	case line == ":optimize":
		return s.showOptimized()
	case line == ":stats":
		return s.showStats()
	case strings.HasPrefix(line, ":"):
		return fmt.Errorf("unknown command %q (:help)", line)
	case strings.HasPrefix(line, "?-"):
		return s.query(line)
	default:
		return s.addClause(line)
	}
}

// mutate asserts or retracts one base fact. Connected to a served
// instance (-server), it posts to /update or /retract and reports the
// acknowledged sequence number — the fact is then durable if the server
// runs with -wal. Without a server it edits the local accumulated
// program, so the next query sees the change.
func (s *replSession) mutate(op, fact string) error {
	if !strings.HasSuffix(fact, ".") {
		fact += "."
	}
	res, err := parser.Parse(fact)
	if err != nil {
		return err
	}
	if len(res.Program.Rules) > 0 || len(res.Facts) != 1 {
		return fmt.Errorf("%s takes exactly one ground fact, e.g. q(1,2)", op)
	}
	if s.server != "" {
		return s.mutateServed(op, fact)
	}
	if op == "update" {
		return s.addClause(fact)
	}
	// Local retract: drop the matching stored line. Lines that bundle
	// several clauses only match when retracted verbatim.
	for i, f := range s.facts {
		if f == fact {
			s.facts = append(s.facts[:i], s.facts[i+1:]...)
			s.factCount--
			return nil
		}
	}
	return fmt.Errorf("fact %s not present", strings.TrimSuffix(fact, "."))
}

// mutateServed posts the fact through the shared server client and
// prints the acknowledged sequence number. Like a query, the call is
// interruptible: Ctrl-C cancels it instead of waiting out a wedged
// server.
func (s *replSession) mutateServed(op, fact string) error {
	ctx, cancel := context.WithCancel(context.Background())
	s.setCancel(cancel)
	defer func() {
		s.setCancel(nil)
		cancel()
	}()
	res, err := server.NewClient(s.server).Mutate(ctx, op, []string{fact}, 0)
	if err != nil {
		if ctx.Err() != nil {
			return fmt.Errorf("%s interrupted before its ack (the server may still apply it): %w", op, err)
		}
		return err
	}
	if res.Err != "" {
		return fmt.Errorf("%s: HTTP %d: %s", op, res.Status, res.Err)
	}
	fmt.Fprintf(s.out, "%% %s acknowledged at seq %d\n", op, res.Seq)
	return nil
}

func (s *replSession) loadFile(path string) error {
	src, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	for _, line := range strings.Split(string(src), "\n") {
		line = strings.TrimSpace(line)
		if line == "" || strings.HasPrefix(line, "%") {
			continue
		}
		if strings.HasPrefix(line, "?-") {
			continue // stored queries are not replayed
		}
		if err := s.addClause(line); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	}
	fmt.Fprintf(s.out, "loaded %s (%d rules, %d facts)\n", path, len(s.rules), len(s.facts))
	return nil
}

// addClause validates a single rule or fact against the accumulated
// program before admitting it.
func (s *replSession) addClause(line string) error {
	if !strings.HasSuffix(line, ".") {
		return fmt.Errorf("clauses end with '.'")
	}
	all := strings.Join(s.rules, "\n") + "\n" + strings.Join(s.facts, "\n") + "\n" + line
	res, err := parser.Parse(all)
	if err != nil {
		return err
	}
	// Classify the admitted line by whether the parsed fact count grew (a
	// line may carry several clauses).
	if len(res.Facts) > s.factCount {
		s.facts = append(s.facts, line)
	} else {
		s.rules = append(s.rules, line)
	}
	s.factCount = len(res.Facts)
	return nil
}

func (s *replSession) program(goal string) (*existdlog.Program, *existdlog.Database, error) {
	src := strings.Join(s.rules, "\n") + "\n" + strings.Join(s.facts, "\n") + "\n" + goal + "\n"
	return existdlog.Parse(src)
}

func (s *replSession) query(goal string) error {
	if !strings.HasSuffix(goal, ".") {
		goal += "."
	}
	start := time.Now()
	prog, db, err := s.program(goal)
	if err != nil {
		s.registry().ObserveError(time.Since(start))
		return err
	}
	var opts *existdlog.Options
	if s.optimize {
		o := existdlog.DefaultOptions()
		opts = &o
	}
	p, err := prepare.Prepare(prog, prog.Query, opts)
	if err != nil {
		s.registry().ObserveError(time.Since(start))
		return err
	}
	s.lastProg, s.lastResult = p.Program, nil
	if p.Empty {
		s.registry().ObserveQuery(existdlog.Stats{}, nil, time.Since(start), obs.OutcomeOK)
		fmt.Fprintln(s.out, "no (proved empty at compile time)")
		return nil
	}
	ctx, cancel := context.WithCancel(context.Background())
	s.setCancel(cancel)
	defer func() {
		s.setCancel(nil)
		cancel()
	}()
	res, answers, err := p.Eval(ctx, db, prog.Query,
		existdlog.EvalOptions{BooleanCut: true, TrackProvenance: true})
	interrupted := false
	if err != nil {
		if !errors.Is(err, existdlog.ErrCanceled) || res == nil || !res.Partial {
			s.registry().ObserveError(time.Since(start))
			return err
		}
		interrupted = true
	}
	outcome := obs.OutcomeOK
	if res.Partial {
		outcome = obs.OutcomePartial
	}
	s.registry().ObserveQuery(res.Stats, res.Trace, time.Since(start), outcome)
	s.lastResult = res
	if answers.Len() == 0 && !interrupted {
		fmt.Fprintln(s.out, "no")
		return nil
	}
	for i := 0; i < answers.Len(); i++ {
		if i == 25 {
			fmt.Fprintf(s.out, "... and %d more\n", answers.Len()-i)
			break
		}
		if row := answers.Strings(i); len(row) == 0 {
			fmt.Fprintln(s.out, "yes")
		} else {
			fmt.Fprintf(s.out, "%s(%s)\n", p.Goal.Key(), strings.Join(row, ","))
		}
	}
	if interrupted {
		fmt.Fprintf(s.out, "%%%% interrupted — partial result: %d answers so far, %d facts derived, %d iterations\n",
			answers.Len(), res.Stats.FactsDerived, res.Stats.Iterations)
		return nil
	}
	fmt.Fprintf(s.out, "%% %d answers, %d facts derived, %d iterations\n",
		answers.Len(), res.Stats.FactsDerived, res.Stats.Iterations)
	return nil
}

// why prints the derivation tree of a ground fact from the last query's
// result: a fact of the prepared program the query evaluated. Under
// optimization derived facts are named by their adorned keys (e.g.
// "a@nd(1)"); the tree's leaves are always base facts. A chain-rewritten
// goal derives only the seeded program's primed predicates (such as
// a'1), which the fact syntax cannot write, so why explains no derived
// fact of such a query.
func (s *replSession) why(fact string) error {
	if s.lastResult == nil {
		return fmt.Errorf("no query result yet — run a '?- goal.' query first")
	}
	tree, err := existdlog.Why(s.lastResult, fact)
	if err != nil {
		return err
	}
	fmt.Fprint(s.out, existdlog.FormatTree(tree, s.lastProg, s.lastResult))
	return nil
}

// showStats prints the session's cumulative metrics. Every query since
// startup drains into the same obs registry type that backs `existdlog
// serve`'s /metrics; the registry is session-lifetime, so :clear does
// not reset it.
func (s *replSession) showStats() error {
	snap := s.registry().Snapshot()
	fmt.Fprintf(s.out, "queries: %d (ok %d, partial %d, error %d)\n",
		snap.TotalQueries(), snap.Queries[obs.OutcomeOK],
		snap.Queries[obs.OutcomePartial], snap.Queries[obs.OutcomeError])
	fmt.Fprintf(s.out, "facts derived: %d; rule firings: %d; derivations: %d (%d duplicates); join probes: %d; passes: %d; rules retired: %d\n",
		snap.FactsDerived, snap.RuleFirings, snap.Derivations,
		snap.DuplicateHits, snap.JoinProbes, snap.Iterations, snap.RulesRetired)
	if n := snap.Latency.Count; n > 0 {
		fmt.Fprintf(s.out, "latency: p50 %s, p95 %s, p99 %s over %d queries\n",
			snap.Latency.QuantileDuration(0.50),
			snap.Latency.QuantileDuration(0.95),
			snap.Latency.QuantileDuration(0.99), n)
	}
	if len(snap.Rules) > 0 {
		fmt.Fprintf(s.out, "%-8s %8s %8s %8s  %s\n", "firings", "emitted", "facts", "dup", "rule")
		for _, r := range snap.Rules {
			fmt.Fprintf(s.out, "%-8d %8d %8d %8d  %s\n",
				r.Firings, r.Emitted, r.Facts, r.Duplicates, r.Text)
		}
	}
	return nil
}

// showOptimized prints the program the last query evaluated: the
// prepared program, optimized unless the session runs with -noopt.
func (s *replSession) showOptimized() error {
	if s.lastProg == nil {
		return fmt.Errorf("no query yet")
	}
	fmt.Fprint(s.out, s.lastProg.String())
	return nil
}
