// Command benchmark is Part 1 of the existdlog benchmark: it starts the
// built `existdlog serve` as a child process, drives it over loopback
// HTTP from one closed-loop client and reports what a user of the
// service would see. It imports nothing from the module under test —
// only the standard library, the built binary and its endpoints.
//
// Run it through benchmark/run.sh, which builds the binaries.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sort"
	"syscall"

	"existdlog/benchmark/gen"
)

// The end-to-end metrics, in reporting order.
var endToEnd = []string{"setup_s", "ops_per_s", "p50_ms", "cpu_ms_per_op", "rss_mb"}

func main() {
	var o options
	workload := flag.String("workload", "", "run one workload and print its metrics as the last line (default: all five, end to end)")
	flag.Uint64Var(&o.seed, "seed", 1, "seed of the generated programs, facts and op streams")
	flag.Float64Var(&o.seconds, "seconds", 15, "length of the measured phase")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file instead of the end-to-end metrics")
	flag.Float64Var(&o.scale, "scale", 1, "shrink fact sets, run length and cold-start count together (smoke tests)")
	aa := flag.Int("aa", 0, "self-check: two interleaved sets of N runs of this tree must agree within every bound")
	flag.StringVar(&o.bin, "bin", ".bench_build/existdlog", "the built existdlog")
	flag.StringVar(&o.layers, "layers", ".bench_build/layers", "the built Part 2 (benchmark/layers)")
	flag.StringVar(&o.tmp, "tmp", ".bench_build/tmp", "scratch directory for program files, WAL directories and span files")
	flag.BoolVar(&o.corrupt, "corrupt-oracle", false, "make one expected answer wrong; the run must then exit non-zero")
	flag.Parse()
	if flag.NArg() > 0 {
		fatal(fmt.Errorf("unexpected argument %q", flag.Arg(0)))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sig
		killAllChildren()
		os.Exit(130)
	}()

	var code int
	switch {
	case *aa > 0:
		code = selfCheck(*aa, o)
	case *workload == "":
		code = runAll(o)
	default:
		code = runOne(*workload, *trace == 1, o)
	}
	killAllChildren()
	os.Exit(code)
}

func fatal(err error) {
	killAllChildren()
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(2)
}

// build generates a workload, optionally with one oracle entry made
// wrong.
func build(name string, o options) (*gen.Workload, error) {
	w, err := gen.Build(name, o.seed, o.scale)
	if err != nil {
		return nil, err
	}
	if o.corrupt {
		want := &w.Setup[0].Requests[len(w.Setup[0].Requests)-1].Want
		*want = append([][]string{{"no", "such"}}, (*want)...)
	}
	return w, nil
}

// runOne runs one workload, end to end or traced, and prints the result
// object as the last line.
func runOne(name string, traced bool, o options) int {
	w, err := build(name, o)
	if err != nil {
		fatal(err)
	}
	fmt.Printf("%s seed %d digest %016x\n", w.Name, o.seed, w.Digest)
	var res result
	if traced {
		res, err = runTraced(w, o)
	} else {
		res, err = runEndToEnd(w, o)
	}
	if err != nil {
		fatal(fmt.Errorf("%s: %w", name, err))
	}
	printMetrics(res)
	return finish(res)
}

// finish prints the result object as the last line; the exit code says
// whether every answer was right.
func finish(res result) int {
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

func printMetrics(res result) {
	names := make([]string, 0, len(res.Metrics))
	for n := range res.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		m := res.Metrics[n]
		fmt.Printf("  %-36s %14.4f %s\n", n, m.Value, m.Unit)
	}
	fmt.Printf("  %-36s %14d\n  %-36s %14d\n", "ops_attempted", res.Attempted, "ops_failed", res.Failed)
}

// runAll is the one command that prints every end-to-end metric of
// every workload by name with its unit; the last line carries them all,
// prefixed with the workload's name.
func runAll(o options) int {
	all := result{Correct: true, Metrics: map[string]metric{}}
	for _, name := range gen.Names {
		w, err := build(name, o)
		if err != nil {
			fatal(err)
		}
		fmt.Printf("%s seed %d digest %016x\n", w.Name, o.seed, w.Digest)
		res, err := runEndToEnd(w, o)
		if err != nil {
			fatal(fmt.Errorf("%s: %w", name, err))
		}
		printMetrics(res)
		all.Attempted += res.Attempted
		all.Failed += res.Failed
		for n, m := range res.Metrics {
			all.Metrics[name+"."+n] = m
		}
	}
	all.Correct = all.Failed == 0
	return finish(all)
}
