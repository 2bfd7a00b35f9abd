package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"existdlog/internal/engine"
	"existdlog/internal/experiments"
	"existdlog/internal/harness"
)

// errReason names a cancellation/deadline abort for the bench footer.
func errReason(err error) string {
	if errors.Is(err, engine.ErrDeadline) {
		return "deadline exceeded"
	}
	return "canceled"
}

// cmdBench runs the full experiment suite of EXPERIMENTS.md and prints
// each table plus the E12 capability matrix.
func cmdBench(args []string) error {
	fs := flag.NewFlagSet("bench", flag.ExitOnError)
	only := fs.String("only", "", "run a single experiment id (e.g. E3)")
	repeat := fs.Int("repeat", 1, "evaluate each cell this many times and report p50/p95/p99 latency quantiles")
	jsonOut := fs.String("json", "", "record the measured rows as a JSON array to this file (e.g. BENCH_E1.json)")
	timeout := fs.Duration("timeout", 0, "overall deadline for the suite; on expiry the partial tables are printed (0 = no limit)")
	cancelTable := fs.Bool("cancel", false, "measure the cancellation-latency table (DESIGN.md §7) instead of the experiment suite")
	cpuProfile := fs.String("cpuprofile", "", "write a CPU profile of the suite to this file (go tool pprof)")
	memProfile := fs.String("memprofile", "", "write a heap profile after the suite to this file")
	fs.Parse(args)

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		defer func() {
			f, err := os.Create(*memProfile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // settle allocations so the heap profile reflects live data
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "bench: memprofile:", err)
			}
		}()
	}

	if *cancelTable {
		fmt.Println("== cancellation latency: time from deadline expiry to partial result ==")
		rows, err := experiments.CancellationLatency([]time.Duration{
			time.Millisecond, 10 * time.Millisecond, 100 * time.Millisecond,
		})
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatCancellationTable(rows))
		return nil
	}

	ctx := context.Background()
	if *timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, *timeout)
		defer cancel()
	}
	exps, err := experiments.All()
	if err != nil {
		return err
	}
	var allRows []harness.Row
	recordJSON := func() error {
		if *jsonOut == "" {
			return nil
		}
		f, err := os.Create(*jsonOut)
		if err != nil {
			return err
		}
		defer f.Close()
		return harness.WriteJSON(f, allRows)
	}
	for _, e := range exps {
		if *only != "" && e.ID != *only {
			continue
		}
		fmt.Printf("== %s: %s ==\n", e.ID, e.Title)
		fmt.Printf("claim: %s\n", e.Claim)
		rows, err := e.RunRepeatContext(ctx, *repeat)
		aborted := err != nil && (errors.Is(err, engine.ErrCanceled) || errors.Is(err, engine.ErrDeadline))
		if err != nil && !aborted {
			return err
		}
		allRows = append(allRows, rows...)
		harness.WriteTable(os.Stdout, rows)
		if aborted {
			fmt.Printf("%%%% bench aborted mid-suite: %s\n", errReason(err))
			return recordJSON()
		}
		if len(e.Variants) >= 2 {
			fmt.Println("speedups (first variant vs last):")
			fmt.Print(harness.Speedup(rows, e.Variants[0].Name, e.Variants[len(e.Variants)-1].Name))
		}
		fmt.Println()
	}
	if *only == "" || *only == "E12" {
		fmt.Println("== E12: deletion capability matrix (rules remaining per test) ==")
		mat, err := experiments.CapabilityMatrix()
		if err != nil {
			return err
		}
		fmt.Print(experiments.FormatCapabilityMatrix(mat))
	}
	return recordJSON()
}
