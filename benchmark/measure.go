package main

import (
	"fmt"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"time"

	"existdlog/benchmark/gen"
)

// options are the settings of one run.
type options struct {
	seed    uint64
	seconds float64 // length of the measured phase at scale 1
	scale   float64 // shrinks fact sets, run length and cold-start count together
	bin     string  // the built existdlog
	layers  string  // the built Part 2
	tmp     string  // scratch directory inside the checkout
	// corrupt makes one oracle entry wrong, to show that a wrong answer
	// cannot pass.
	corrupt bool
}

type metric = gen.Metric

// result is the last line of a run's output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// session is one child process with the client connected to it and the
// tally of every op sent to it.
type session struct {
	w       *gen.Workload
	child   *child
	cl      *client
	program string
	walDir  string

	attempted, failed int
	firstErr          error
	bytes             int64         // answer bytes read
	verify            time.Duration // spent checking answers, off the clock
	meter             *speedometer
}

// coldStart execs a fresh child and answers every set-up op, fully
// verified. The duration is the cold-start-to-warm time a user waits:
// exec to /readyz 200 plus the latency of each set-up answer; checking
// the answers against the oracle is not in it. The meter is sampled
// before, between and after.
func coldStart(w *gen.Workload, o options, dir string, meter *speedometer) (*session, time.Duration, error) {
	s := &session{w: w, program: filepath.Join(dir, "program.dl"), meter: meter}
	if _, err := os.Stat(s.program); err != nil {
		if err := os.WriteFile(s.program, []byte(w.Source), 0o644); err != nil {
			return nil, 0, err
		}
	}
	if w.WAL {
		wal, err := os.MkdirTemp(dir, "wal-")
		if err != nil {
			return nil, 0, err
		}
		s.walDir = wal
	}
	meter.sample()
	start := time.Now()
	if err := s.start(o.bin); err != nil {
		return nil, 0, err
	}
	warm := time.Since(start)
	meter.sample()
	for _, op := range w.Setup {
		lat, _ := s.exec(op, true)
		warm += lat
		meter.sample()
	}
	return s, warm, nil
}

// start execs the child on the session's program (and WAL directory)
// and waits until it is ready.
func (s *session) start(bin string) error {
	c, err := startChild(bin, s.program, s.walDir)
	if err != nil {
		return err
	}
	s.child, s.cl = c, newClient()
	if err := c.awaitReady(s.cl.http); err != nil {
		s.stop()
		return err
	}
	return nil
}

func (s *session) stop() {
	s.cl.close()
	s.child.kill()
}

// exec runs one op: its requests in order, each answer checked before
// the next request goes out. The op's latency is the sum of its
// requests' latencies; checking is off the clock. A failed op reports
// ok=false and counts toward neither throughput nor latency.
func (s *session) exec(op gen.Op, full bool) (lat time.Duration, ok bool) {
	s.attempted++
	for _, r := range op.Requests {
		l, status, answer, err := s.cl.post(s.child.base, r.Path, r.Body())
		if err == nil {
			s.bytes += int64(len(answer))
			start := time.Now()
			_, err = r.Check(status, answer, full)
			s.verify += time.Since(start)
		}
		if err != nil {
			s.fail(err)
			return 0, false
		}
		lat += l
	}
	return lat, true
}

// phase is what one timed stretch of ops produced.
type phase struct {
	lats  []time.Duration // latencies of the verified ops, in op order
	ops   int             // ops attempted
	cpu   time.Duration   // child user+sys CPU over the stretch
	rss   []float64       // VmRSS samples in MB, at fixed op indices
	scale float64         // takes times of this stretch to reference machine speed, see speedometer
}

// warmupOps and sampleStride size the parts of a run that are counted
// in ops, not seconds, so that they name the same ops on every commit:
// a tenth of the nominal run is warm-up, and memory is sampled 40 times
// over the first half of the nominal run.
func warmupOps(w *gen.Workload, o options) int {
	return max(3, int(w.OpsPerSecond*o.seconds*o.scale*0.1))
}

const rssSamples = 40

func sampleStride(w *gen.Workload, o options) int {
	return max(1, int(w.OpsPerSecond*o.seconds*o.scale*0.5/rssSamples))
}

// measure runs ops from index first: at least minOps of them and for at
// least dur. Every eighth op is checked row by row; the others have
// status, count and partial flag checked. With a stride, the child's
// resident set is sampled after every stride-th of the first minOps
// ops. after, when not nil, is called after each op with its index and
// latency.
func (s *session) measure(first, minOps int, dur time.Duration, stride int, after func(i int, lat time.Duration, ok bool)) (phase, error) {
	var p phase
	s.meter.reset()
	cpu0, err := s.child.cpu()
	if err != nil {
		return p, err
	}
	start := time.Now()
	for i := 0; i < minOps || time.Since(start) < dur; i++ {
		s.meter.tick()
		lat, ok := s.exec(s.w.Op(first+i), i%8 == 0)
		p.ops++
		if ok {
			p.lats = append(p.lats, lat)
		}
		if stride > 0 && i < minOps && (i+1)%stride == 0 {
			kb, err := s.child.memKB("VmRSS")
			if err != nil {
				return p, err
			}
			p.rss = append(p.rss, kb/1024)
		}
		if after != nil {
			after(i, lat, ok)
		}
	}
	cpu1, err := s.child.cpu()
	if err != nil {
		return p, err
	}
	p.cpu = cpu1 - cpu0
	p.scale = s.meter.scale()
	return p, nil
}

var storeSeqLine = regexp.MustCompile(`(?m)^existdlog_store_seq (\d+)$`)

// crashAndRecover is the durability step of mixed_rw, counted as one
// op: a few more acknowledged updates, SIGKILL, a restart on the same
// WAL directory, and then the restarted store must be at the last
// acknowledged sequence number and answer with every surviving fact. It
// returns the restart time.
func (s *session) crashAndRecover(bin string) (time.Duration, error) {
	s.attempted++
	var lastSeq uint64
	for _, r := range s.w.Durable {
		_, status, answer, err := s.cl.post(s.child.base, r.Path, r.Body())
		if err == nil {
			lastSeq, err = r.Check(status, answer, true)
		}
		if err != nil {
			s.fail(err)
			return 0, nil
		}
	}
	s.stop()
	start := time.Now()
	if err := s.start(bin); err != nil {
		return 0, fmt.Errorf("restart after SIGKILL: %w", err)
	}
	recovery := time.Since(start)

	scrape, err := s.cl.get(s.child.base + "/metrics")
	if err != nil {
		return 0, err
	}
	m := storeSeqLine.FindSubmatch(scrape)
	if m == nil {
		return 0, fmt.Errorf("no existdlog_store_seq on /metrics")
	}
	if got, _ := strconv.ParseUint(string(m[1]), 10, 64); got != lastSeq {
		s.fail(fmt.Errorf("after SIGKILL and restart the store is at seq %d, last acknowledged was %d", got, lastSeq))
		return recovery, nil
	}
	r := *s.w.AfterRestart
	_, status, answer, err := s.cl.post(s.child.base, r.Path, r.Body())
	if err == nil {
		_, err = r.Check(status, answer, true)
	}
	if err != nil {
		s.fail(fmt.Errorf("after SIGKILL and restart: %w", err))
	}
	return recovery, nil
}

func (s *session) fail(err error) {
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// workDir makes the run's scratch directory.
func workDir(o options, w *gen.Workload) (string, error) {
	if err := os.MkdirAll(o.tmp, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(o.tmp, w.Name+"-")
}

// coldStarts is how many fresh processes setup_s is the median of.
func coldStarts(o options) int { return max(1, int(math.Round(5*o.scale))) }

// runEndToEnd is Part 1: tracing off, every end-to-end metric of one
// workload.
func runEndToEnd(w *gen.Workload, o options) (res result, err error) {
	dir, err := workDir(o, w)
	if err != nil {
		return res, err
	}
	defer os.RemoveAll(dir)

	// Cold starts: fresh process, fresh WAL directory, each. The last
	// one goes on to be measured.
	meter := newSpeedometer()
	var setups []float64
	var s *session
	for k := 0; k < coldStarts(o); k++ {
		if s != nil {
			s.stop()
			res.Attempted += s.attempted
			res.Failed += s.failed
		}
		var warm time.Duration
		s, warm, err = coldStart(w, o, dir, meter)
		if err != nil {
			return res, err
		}
		setups = append(setups, warm.Seconds())
	}
	setupScale := meter.scale()
	defer func() { s.stop() }()

	warmN := warmupOps(w, o)
	for i := 0; i < warmN; i++ {
		s.exec(w.Op(i), true)
	}
	dur := time.Duration(o.seconds * o.scale * float64(time.Second))
	stride := sampleStride(w, o)
	p, err := s.measure(warmN, rssSamples*stride, dur, stride, nil)
	if err != nil {
		return res, err
	}
	dials := s.cl.dials
	if w.Durable != nil {
		if _, err := s.crashAndRecover(o.bin); err != nil {
			return res, err
		}
	}
	res.Attempted += s.attempted
	res.Failed += s.failed
	res.Correct = res.Failed == 0
	if s.firstErr != nil {
		fmt.Printf("  first failure: %v\n", s.firstErr)
	}
	if dials != 1 {
		return res, fmt.Errorf("the client opened %d connections to the measured child, want one keep-alive connection", dials)
	}
	if len(p.lats) == 0 {
		return res, fmt.Errorf("no op succeeded: %v", s.firstErr)
	}

	// Times are reported at reference machine speed: what was measured,
	// scaled by how fast the machine ran the reference work meanwhile.
	// On a shared box that speed moves by tens of percent within
	// minutes, for every process alike; what the program under test
	// costs does not.
	lat := seconds(p.lats)
	res.Metrics = map[string]metric{
		"setup_s":       gen.NewMetric(median(setups)*setupScale, "s"),
		"ops_per_s":     gen.NewMetric(float64(len(p.lats))/sum(lat)/p.scale, "op/s"),
		"p50_ms":        gen.NewMetric(median(lat)*1e3*p.scale, "ms"),
		"cpu_ms_per_op": gen.NewMetric(p.cpu.Seconds()*1e3/float64(p.ops)*p.scale, "ms"),
		"rss_mb":        gen.NewMetric(median(p.rss), "MB"),
	}
	fmt.Printf("  measured %d ops in %.1fs of latency (%d cold starts, %d warm-up ops, %d memory samples)\n",
		p.ops, sum(lat), len(setups), warmN, len(p.rss))
	fmt.Printf("  times scaled by %.3f for set-up and %.3f for the measured phase (%d samples of the reference work, median %.2f ms, nominal %v)\n",
		setupScale, p.scale, len(meter.samples), median(meter.samples)*1e3, referenceUnit)
	fmt.Printf("  as measured, before scaling to reference speed: setup_s %.4f, ops_per_s %.3f, p50_ms %.3f, cpu_ms_per_op %.3f\n",
		median(setups), float64(len(p.lats))/sum(lat), median(lat)*1e3, p.cpu.Seconds()*1e3/float64(p.ops))
	return res, nil
}
