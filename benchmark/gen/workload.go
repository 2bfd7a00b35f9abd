package gen

import (
	"fmt"
	"hash/fnv"
	"math"
	"strings"
)

// rng is splitmix64: ten lines the benchmark owns, so the inputs of a
// seed can never change with a toolchain's math/rand.
type rng struct{ s uint64 }

func newRNG(seed uint64, stream string) *rng {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s", seed, stream)
	return &rng{s: h.Sum64()}
}

func (r *rng) next() uint64 {
	r.s += 0x9e3779b97f4a7c15
	z := r.s
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int) int { return int(r.next() % uint64(n)) }

func (r *rng) perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	r.shuffle(n, func(i, j int) { p[i], p[j] = p[j], p[i] })
	return p
}

func (r *rng) shuffle(n int, swap func(i, j int)) {
	for i := n - 1; i > 0; i-- {
		swap(i, r.intn(i+1))
	}
}

// Request is one HTTP call and what the oracle says about its answer.
type Request struct {
	// Path is /query, /update or /retract.
	Path string
	// Goal is the /query goal ("" asks the served program's default
	// goal); Fact is the ground atom of a mutation.
	Goal string
	Fact string
	// Want is the exact answer set of a query.
	Want [][]string
}

// Op is one benchmark operation: a single query, or on mixed_rw the four
// requests of one transaction, whose latencies add up.
type Op struct {
	Requests []Request
}

func (o Op) text() string {
	var sb strings.Builder
	for _, r := range o.Requests {
		fmt.Fprintf(&sb, "%s %s%s -> %d;", r.Path, r.Goal, r.Fact, len(r.Want))
	}
	return sb.String()
}

// Workload is one generated traffic shape.
type Workload struct {
	Name string
	// Program is the structured form the oracle evaluates; Source is
	// the text the child process is started on.
	Program *Program
	Source  string
	// WAL says the child runs with -wal.
	WAL bool
	// Setup holds one op per distinct goal of the pool; a cold start is
	// warm once each has been answered and verified.
	Setup []Op
	// Op returns the i-th operation of the measured stream. The stream
	// is endless and depends on nothing but the seed and i.
	Op func(i int) Op
	// Durable, on mixed_rw, is sent after the measured phase and must
	// survive a SIGKILL: a few updates whose facts the restarted child
	// has to answer with.
	Durable []Request
	// AfterRestart is the query that proves it.
	AfterRestart *Request
	// OpsPerSecond is the rate this workload ran at when the benchmark
	// was written; it sizes the fixed op indices at which memory is
	// sampled and the minimum op count of a run, nothing else.
	OpsPerSecond float64
	// Digest is FNV-64a over the source and the first digestOps ops.
	Digest uint64
}

const digestOps = 2048

// PrefixOps is how many ops of the stream a traced run replays: 15 % of
// a nominal run, counted so that both halves of the benchmark name the
// same ops and counters summed over them repeat exactly.
func (w *Workload) PrefixOps(seconds, scale float64) int {
	return max(8, int(w.OpsPerSecond*seconds*scale*0.15))
}

func (w *Workload) seal() {
	w.Source = w.Program.Source()
	h := fnv.New64a()
	h.Write([]byte(w.Source))
	for _, op := range w.Setup {
		h.Write([]byte(op.text()))
	}
	for i := 0; i < digestOps; i++ {
		h.Write([]byte(w.Op(i).text()))
	}
	for _, r := range w.Durable {
		h.Write([]byte(r.Fact))
	}
	w.Digest = h.Sum64()
}

// Names lists the workloads in the order they are reported. Names and
// order do not depend on the seed.
var Names = []string{"point_deep", "closure_wide", "exists_cut", "mixed_rw", "compile_cold"}

// Build generates one workload. scale 1 is the benchmark; smaller scales
// shrink the fact sets for smoke tests and for the 1/10-scale comparison
// of the optimized against the as-written program.
func Build(name string, seed uint64, scale float64) (*Workload, error) {
	if scale <= 0 || scale > 1 {
		return nil, fmt.Errorf("gen: scale %v outside (0,1]", scale)
	}
	var w *Workload
	switch name {
	case "point_deep":
		w = pointDeep(seed, scale)
	case "closure_wide":
		w = closureWide(seed, scale)
	case "exists_cut":
		w = existsCut(seed, scale)
	case "mixed_rw":
		w = mixedRW(seed, scale)
	case "compile_cold":
		w = compileCold(seed, scale)
	default:
		return nil, fmt.Errorf("gen: unknown workload %q (have %s)", name, strings.Join(Names, ", "))
	}
	w.Name = name
	w.seal()
	return w, nil
}

// scaled shrinks a size, never below floor.
func scaled(n int, scale float64, floor int) int {
	v := int(math.Round(float64(n) * scale))
	if v < floor {
		return floor
	}
	return v
}

// names returns n distinct constants "<prefix><number>" whose numbers
// are a seeded permutation, so that a seed changes every symbol the
// program under test interns without changing the shape of the data.
func names(r *rng, prefix string, n int) []string {
	out := make([]string, n)
	for i, p := range r.perm(n) {
		out[i] = fmt.Sprintf("%s%d", prefix, p)
	}
	return out
}

func shuffleFacts(r *rng, facts []Atom) {
	r.shuffle(len(facts), func(i, j int) { facts[i], facts[j] = facts[j], facts[i] })
}

func query(goal Atom, db DB) Request {
	return Request{Path: "/query", Goal: goal.String(), Want: Answers(db, goal)}
}
