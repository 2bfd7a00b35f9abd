// Loadgen scenarios: named, committed workload shapes over the same
// transitive-closure program the rest of the suite studies. Each
// scenario pins an EDB (a chain from the package's generators), an
// arrival process, a cohort mix, and a default SLO; Generate turns one
// into a deterministic Trace.
package workload

import (
	"fmt"
	"math/rand"
	"sort"
	"strings"
	"time"

	"existdlog/internal/engine"
)

// Scenario is one committed workload shape.
type Scenario struct {
	Name        string
	Description string
	// Nodes is the chain length of the served EDB (edge relation "e",
	// nodes named 0..Nodes by the Chain generator).
	Nodes int
	// Periods is the native arrival process; -duration cycles and
	// truncates it, -rate overrides every period's rate.
	Periods []Period
	Mix     Mix
	// SLO is the scenario's default objective spec, e.g.
	// "p99=50ms,errors=0" (advisory unless -slo is given explicitly).
	SLO string
}

// Scenarios are the committed workload shapes, keyed by name.
var Scenarios = map[string]Scenario{
	"steady": {
		Name:        "steady",
		Description: "steady point-query traffic: 50 rps, 90% bound-first-argument goals",
		Nodes:       200,
		Periods:     []Period{{Rate: 50, Duration: 10 * time.Second}},
		Mix:         Mix{Point: 0.9, Recursive: 0.05, Boolean: 0.05},
		SLO:         "p99=50ms,errors=0",
	},
	"recursive": {
		Name:        "recursive",
		Description: "recursive-heavy traffic: full tc(X,Y) fixpoints dominate",
		Nodes:       300,
		Periods:     []Period{{Rate: 10, Duration: 10 * time.Second}},
		Mix:         Mix{Point: 0.2, Recursive: 0.7, Boolean: 0.1},
		SLO:         "p99=2s,errors=0",
	},
	"overload": {
		Name: "overload",
		Description: "sustained 3x-saturation point-query overload: the admission " +
			"controller must keep goodput flat and reject the rest with 429/503",
		Nodes: 200,
		// PR 6's BENCH baselines put the optimized point-query path at
		// ~26rps on one core; 78rps ≈ 3× saturation. Every request asks
		// a bound-first-argument goal so rejected work is comparable to
		// served work.
		Periods: []Period{{Rate: 78, Duration: 10 * time.Second}},
		Mix:     Mix{Point: 1.0},
		// Goodput must hold near saturation while p99 of *served*
		// requests stays bounded by the queue timeout (rejected
		// requests are excluded from latency).
		SLO: "p99=1500ms,goodput=20",
	},
	"mixed": {
		Name:        "mixed",
		Description: "mixed read/write with a mid-run rate burst and 20% mutations",
		Nodes:       200,
		Periods: []Period{
			{Rate: 40, Duration: 4 * time.Second},
			{Rate: 80, Duration: 2 * time.Second},
			{Rate: 40, Duration: 4 * time.Second},
		},
		Mix: Mix{Point: 0.6, Recursive: 0.1, Boolean: 0.1, MutationRatio: 0.2},
		SLO: "p99=500ms,errors=0",
	},
}

// ScenarioNames lists the committed scenarios, sorted.
func ScenarioNames() []string {
	names := make([]string, 0, len(Scenarios))
	for n := range Scenarios {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Program renders the scenario's served program: the transitive closure
// of a chain EDB drawn from the package's Chain generator. Serve this
// (existdlog loadgen -emit-program > s.dl; existdlog serve s.dl) and
// point the loadgen at it.
func (sc Scenario) Program() string {
	db := engine.NewDatabase()
	Chain(db, "e", sc.Nodes)
	var sb strings.Builder
	fmt.Fprintf(&sb, "%% loadgen scenario %q: transitive closure over a %d-node chain.\n", sc.Name, sc.Nodes)
	sb.WriteString("tc(X,Y) :- e(X,Y).\n")
	sb.WriteString("tc(X,Y) :- e(X,Z), tc(Z,Y).\n")
	sb.WriteString("?- tc(X,Y).\n")
	for _, row := range db.Facts("e") {
		fmt.Fprintf(&sb, "e(%s,%s).\n", row[0], row[1])
	}
	return sb.String()
}

// EffectivePeriods is the arrival process a run actually uses: the
// native periods when total <= 0, otherwise the native sequence cycled
// and truncated to exactly total. A rate > 0 overrides every period.
func (sc Scenario) EffectivePeriods(total time.Duration, rate float64) []Period {
	src := sc.Periods
	var out []Period
	if total <= 0 {
		out = append(out, src...)
	} else {
		var acc time.Duration
		for i := 0; acc < total; i++ {
			p := src[i%len(src)]
			if acc+p.Duration > total {
				p.Duration = total - acc
			}
			out = append(out, p)
			acc += p.Duration
		}
	}
	if rate > 0 {
		for i := range out {
			out[i].Rate = rate
		}
	}
	return out
}

// Generate materializes the scenario into a deterministic Trace: one
// seeded rng drives the arrival process and then, per arrival in offset
// order, the class draw and the payload draw — so identical
// (scenario, seed, duration, rate) inputs yield byte-identical traces.
func (sc Scenario) Generate(seed int64, duration time.Duration, rate float64) *Trace {
	periods := sc.EffectivePeriods(duration, rate)
	rng := rand.New(rand.NewSource(seed))
	offsets := Arrivals(rng, periods)
	reqs := make([]Request, 0, len(offsets))
	readTotal := sc.Mix.Point + sc.Mix.Recursive + sc.Mix.Boolean
	mutations := 0
	for _, off := range offsets {
		r := Request{Offset: off}
		if sc.Mix.MutationRatio > 0 && rng.Float64() < sc.Mix.MutationRatio {
			// Mutation slots alternate: update k hangs a fresh source
			// u<k> off the chain head, retract k removes it again, so
			// the store stays bounded.
			k := mutations / 2
			if mutations%2 == 0 {
				r.Class = ClassUpdate
			} else {
				r.Class = ClassRetract
			}
			r.Facts = []string{fmt.Sprintf("e(u%d,0)", k)}
			mutations++
		} else {
			u := rng.Float64() * readTotal
			switch {
			case u < sc.Mix.Point:
				r.Class = ClassPoint
				r.Goal = fmt.Sprintf("tc(%d,X)", rng.Intn(sc.Nodes))
			case u < sc.Mix.Point+sc.Mix.Recursive:
				r.Class = ClassRecursive
				r.Goal = "tc(X,Y)"
			default:
				r.Class = ClassBoolean
				r.Goal = fmt.Sprintf("tc(%d,%d)", rng.Intn(sc.Nodes), rng.Intn(sc.Nodes))
			}
		}
		reqs = append(reqs, r)
	}
	return &Trace{
		Schema:   TraceSchema,
		Scenario: sc.Name,
		Seed:     seed,
		Periods:  periods,
		Requests: reqs,
	}
}
