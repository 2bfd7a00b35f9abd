//go:build failpoint

package engine

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"existdlog/internal/failpoint"
)

// TestTracePartialConsistencyUnderFaults is the ISSUE 3 failpoint
// satellite: kill an evaluation mid-pass at each engine fault site, with
// tracing on, and check that the partial run's per-rule counters still
// partition its partial Stats exactly — the merge-at-barrier bookkeeping
// must not drift when a pass is aborted between an emit and its barrier.
// Update and Retract run the same passes, so they take the same check.
func TestTracePartialConsistencyUnderFaults(t *testing.T) {
	p := mustParse(t, faultProgram)
	forEachFaultSite(t, p, func(t *testing.T, op faultOp, site string) {
		for _, after := range []int{1, 2, 5, 17} {
			t.Run(fmt.Sprintf("after=%d", after), func(t *testing.T) {
				defer checkNoLeakedGoroutines(t)()
				defer failpoint.Reset()
				boom := fmt.Errorf("boom at %s", site)
				failpoint.EnableError(site, boom, after)
				res, err := op.run(Options{Trace: true})
				if failpoint.Hits(site) < int64(after) {
					t.Skipf("site %s hit %d times, fires at %d — completed first",
						site, failpoint.Hits(site), after)
				}
				if !errors.Is(err, boom) {
					t.Fatalf("err = %v, want injected %v", err, boom)
				}
				if res == nil || !res.Partial {
					t.Fatalf("want partial result, got %+v", res)
				}
				assertTracePartition(t, res, t.Name(), faultProgram)
			})
		}
	})
}

// TestTracePartialOnDeadline checks the same partition invariant when the
// abort comes from the context instead of an injected error: a delay at
// the insert site slows the merge down until the deadline expires
// mid-pass, so the partial Stats and per-rule counters must agree at
// whatever emission the tick noticed the expiry.
func TestTracePartialOnDeadline(t *testing.T) {
	defer checkNoLeakedGoroutines(t)()
	p := mustParse(t, faultProgram)
	db := faultDB(120) // full closure: 7260 facts — unreachable under the delay
	for _, s := range evaluators {
		t.Run(s.name, func(t *testing.T) {
			defer failpoint.Reset()
			failpoint.EnableDelay(FPInsert, 2*time.Millisecond, 40)
			ctx, cancel := context.WithTimeout(context.Background(), 30*time.Millisecond)
			defer cancel()
			res, err := s.eval(ctx, p, db, Options{Trace: true})
			if !errors.Is(err, ErrDeadline) {
				t.Fatalf("err = %v, want ErrDeadline", err)
			}
			if res == nil || !res.Partial {
				t.Fatalf("want partial result, got %+v", res)
			}
			assertTracePartition(t, res, s.name, faultProgram)
		})
	}
}
