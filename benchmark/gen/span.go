package gen

import (
	"sort"
	"time"
)

// Span is one timed call into a layer, as both halves of the benchmark
// record it: the in-process replay around each public function it
// calls, the served pass around each request (with the server's own
// span tree, paged from /debug/requests, hung beneath).
type Span struct {
	Name string `json:"name"`
	// Start and End are nanoseconds since the trace began.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
	// Parent is the index of the enclosing span in the same list, -1
	// for a root.
	Parent int `json:"parent"`
	// Op is the index of the benchmark op the work belongs to, -1 for
	// set-up work. Spans of one op share it.
	Op int `json:"op"`
}

// Trace collects spans in memory; they are written out when the
// benchmark ends.
type Trace struct {
	Spans []Span
	t0    time.Time
}

func NewTrace() *Trace { return &Trace{t0: time.Now()} }

// Begin opens a span and returns its index.
func (t *Trace) Begin(name string, parent, op int) int {
	t.Spans = append(t.Spans, Span{Name: name, Parent: parent, Op: op, Start: int64(time.Since(t.t0))})
	return len(t.Spans) - 1
}

// End closes span i and returns its duration.
func (t *Trace) End(i int) time.Duration {
	t.Spans[i].End = int64(time.Since(t.t0))
	return time.Duration(t.Spans[i].End - t.Spans[i].Start)
}

// Now is the current offset from the start of the trace.
func (t *Trace) Now() int64 { return int64(time.Since(t.t0)) }

// Record adds a span measured elsewhere; start and end are offsets from
// the start of the trace.
func (t *Trace) Record(name string, parent, op int, start, end int64) int {
	t.Spans = append(t.Spans, Span{Name: name, Parent: parent, Op: op, Start: start, End: end})
	return len(t.Spans) - 1
}

// Seconds returns the durations of every span with the given name.
func Seconds(spans []Span, name string) []float64 {
	var out []float64
	for _, s := range spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start)/1e9)
		}
	}
	return out
}

// LayerTime is what one span name adds up to.
type LayerTime struct {
	Name  string
	Calls int
	Total time.Duration
	// Self is Total minus the time covered by child spans.
	Self time.Duration
}

// SelfTimes sums spans by name, most self time first.
func SelfTimes(spans []Span) []LayerTime {
	covered := make([]int64, len(spans))
	for _, s := range spans {
		if s.Parent >= 0 {
			covered[s.Parent] += s.End - s.Start
		}
	}
	byName := map[string]*LayerTime{}
	for i, s := range spans {
		lt := byName[s.Name]
		if lt == nil {
			lt = &LayerTime{Name: s.Name}
			byName[s.Name] = lt
		}
		lt.Calls++
		lt.Total += time.Duration(s.End - s.Start)
		lt.Self += time.Duration(s.End - s.Start - covered[i])
	}
	out := make([]LayerTime, 0, len(byName))
	for _, lt := range byName {
		out = append(out, *lt)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Self != out[j].Self {
			return out[i].Self > out[j].Self
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// Median of a sample; 0 for an empty one, which only a layer that was
// never entered has.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}

// Metric is one named number with its unit, as the last output line of
// a run carries it.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func NewMetric(value float64, unit string) Metric { return Metric{Value: value, Unit: unit} }

// LayersOutput is the file Part 2 writes for Part 1 to merge.
type LayersOutput struct {
	Metrics   map[string]Metric `json:"metrics"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	FirstErr  string            `json:"first_error,omitempty"`
	Spans     []Span            `json:"spans"`
}
