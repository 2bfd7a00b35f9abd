// Package failpoint is a deterministic fault-injection registry for the
// engine's robustness tests. A failpoint is a named program site
// (e.g. "engine/version") where the code calls Inject; a test enables an
// action at that name — return an error, sleep, or panic — and the site
// misbehaves on a deterministic schedule. The default build compiles every
// hook to a no-op: the registry only exists under the `failpoint` build
// tag (CI runs `go test -race -tags failpoint ./internal/engine/...
// ./internal/failpoint/...`), so production binaries carry no registry,
// no locks, and no injected behavior.
//
// Scheduling is deterministic so fault tests are reproducible:
//
//   - After: the point first fires on the After-th hit (1-based;
//     0 means the first hit), counting hits since Enable.
//   - Count: at most Count firings (0 = unlimited once reached).
//   - Prob/Seed: instead of After, fire per-hit with probability Prob
//     drawn from a rand.Rand seeded with Seed — the firing pattern is a
//     pure function of (Seed, hit index), identical across runs.
package failpoint

import "time"

// Action selects what an enabled failpoint does when it fires.
type Action int

const (
	// ActError makes Inject return the configured error.
	ActError Action = iota
	// ActDelay makes Inject sleep for the configured duration.
	ActDelay
	// ActPanic makes Inject panic with a descriptive value; the engine's
	// recovery layers must convert it into an error exactly once.
	ActPanic
)

// Config describes when and how an enabled failpoint fires.
type Config struct {
	Act   Action
	Err   error         // returned by ActError firings
	Delay time.Duration // slept by ActDelay firings
	After int           // first firing hit index (1-based; 0 ≡ 1)
	Count int           // max firings (0 = unlimited)
	Prob  float64       // if > 0, per-hit firing probability (overrides After)
	Seed  int64         // seed for the Prob schedule
}
