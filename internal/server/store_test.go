package server

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"existdlog"
	"existdlog/internal/engine"
	"existdlog/internal/obs"
	"existdlog/internal/wal"
)

// newTestStore parses src and opens a store over it.
func newTestStore(t *testing.T, src string, cfg StoreConfig) *Store {
	t.Helper()
	prog, db, err := existdlog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(prog, db, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

func mustMutate(t *testing.T, st *Store, op wal.Op, facts ...wal.Fact) uint64 {
	t.Helper()
	seq, err := st.Mutate(context.Background(), Mutation{Op: op, Facts: facts})
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return seq
}

func fact(key string, row ...string) wal.Fact { return wal.Fact{Key: key, Row: row} }

// arenaRows decodes a relation's tuples in arena (insertion) order.
// EDB.Facts sorts its rows, so only this view can tell whether recovery
// rebuilt the arena itself — not just the set — identically (ISSUE 8
// satellite 4: row order feeds evaluation order, which downstream output
// pins byte-for-byte).
func arenaRows(db *engine.Database, key string) [][]string {
	rel, ok := db.Lookup(key)
	if !ok {
		return nil
	}
	out := make([][]string, 0, rel.Len())
	for i := 0; i < rel.Len(); i++ {
		tpl := rel.Tuple(i)
		row := make([]string, len(tpl))
		for j, id := range tpl {
			row[j] = db.Syms.Name(id)
		}
		out = append(out, row)
	}
	return out
}

// TestGoalKeyCollision: the cache key is the goal's binding pattern.
// Goals that differ only in their constants share a key by design, and
// every other difference in the pattern separates them. Predicate names
// are length-prefixed, so no name can run into the argument tokens.
func TestGoalKeyCollision(t *testing.T) {
	key := func(goal string) string {
		t.Helper()
		g, err := parseGoal(goal)
		if err != nil {
			t.Fatal(err)
		}
		return goalKey(g)
	}
	shared := [][2]string{
		{"a('x,c:y','z')", "a('x','y,c:z')"},
		{"a(1,Y)", "a('v0',Z)"},
		{"a(X,Y)", "a(U,V)"},
		{"a(1,1)", "a(1,2)"},
	}
	for _, pair := range shared {
		if key(pair[0]) != key(pair[1]) {
			t.Errorf("same pattern, distinct keys: %s %q, %s %q", pair[0], key(pair[0]), pair[1], key(pair[1]))
		}
	}
	seen := map[string]string{}
	for _, goal := range []string{
		"a(X,Y)", "a(X,X)", "a(1,Y)", "a(_,Y)", "a(1,2)",
		"a(Y,1)", "a(1,_)", "a(X)", "b(X,Y)", "a1(X,Y)", "a(c)",
	} {
		k := key(goal)
		if prior, ok := seen[k]; ok {
			t.Errorf("goalKey(%s) == goalKey(%s) == %q", goal, prior, k)
		}
		seen[k] = goal
	}
}

// TestGoalKeyCollisionServed drives the shared key end to end: goals that
// differ only in their quoted constants share one compiled entry, and each
// still selects its own base tuple.
func TestGoalKeyCollisionServed(t *testing.T) {
	src := `e('x,c:y','z'). e('x','y,c:z').`
	_, ts := newTestServer(t, Config{Source: src})
	_, out1 := postQuery(t, ts.URL, `{"goal": "e('x,c:y','z')"}`)
	if out1["count"].(float64) != 1 {
		t.Fatalf("first goal: %v", out1)
	}
	_, out2 := postQuery(t, ts.URL, `{"goal": "e('x','y,c:z')"}`)
	if out2["count"].(float64) != 1 {
		t.Fatalf("second goal: %v", out2)
	}
	if !out2["cached"].(bool) {
		t.Error("goals of one pattern compiled twice")
	}
	got := fmt.Sprint(out2["answers"])
	if !strings.Contains(got, "y,c:z") || strings.Contains(got, "x,c:y") {
		t.Errorf("second goal served the first goal's answers: %v", got)
	}
	if g, _ := parseGoal("e('x','y,c:z')"); out2["goal"] != g.String() {
		t.Errorf("second goal reported as %v, want %s", out2["goal"], g)
	}
}

func postJSON(t *testing.T, url, body string) (*http.Response, map[string]any) {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatalf("decoding response: %v", err)
	}
	return resp, out
}

// TestMutationEndpoints drives /update and /retract over HTTP: new
// facts change subsequent answers, retracted facts disappear, and the
// write is reflected in the store gauges and mutation counters. The
// requests are sequential, so the state at each seq is known: every
// query must report the seq of the last acknowledged write
// (read-your-write) and answer exactly what a scratch evaluation of the
// unoptimized program over that version's base facts answers.
func TestMutationEndpoints(t *testing.T) {
	s, ts := newTestServer(t, Config{Source: chainSrc})
	prog, _, err := existdlog.Parse(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	queryAt := func(acked uint64, count float64) map[string]any {
		t.Helper()
		_, out := postQuery(t, ts.URL, `{"goal": "a(X,Y)"}`)
		if got := out["seq"].(float64); got != float64(acked) {
			t.Fatalf("query pinned seq %v, want the acked write's seq %d", got, acked)
		}
		v := s.Store().Current()
		if v.Seq != acked {
			t.Fatalf("store at seq %d, want %d", v.Seq, acked)
		}
		want, err := engine.Eval(prog, v.EDB, engine.Options{})
		if err != nil {
			t.Fatal(err)
		}
		if got, ref := fmt.Sprint(out["answers"]), fmt.Sprint(want.Answers(prog.Query)); got != ref {
			t.Errorf("answers at seq %d diverge from scratch evaluation\ngot  %s\nwant %s", acked, got, ref)
		}
		if out["count"].(float64) != count {
			t.Errorf("count at seq %d = %v, want %v", acked, out["count"], count)
		}
		return out
	}

	queryAt(0, 6)

	resp, out := postJSON(t, ts.URL+"/update", `{"facts": ["p(4,5)"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d: %v", resp.StatusCode, out)
	}
	if out["seq"].(float64) != 1 {
		t.Errorf("seq = %v, want 1", out["seq"])
	}
	out = queryAt(1, 10) // closure of a 5-chain
	if !out["cached"].(bool) {
		t.Error("the compiled-program cache must survive mutations (it depends on rules only)")
	}

	resp, out = postJSON(t, ts.URL+"/retract", `{"facts": ["p(4,5)", "p(3,4)"]}`)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("retract status %d: %v", resp.StatusCode, out)
	}
	if out["seq"].(float64) != 2 {
		t.Errorf("seq = %v, want 2", out["seq"])
	}
	queryAt(2, 3) // closure of a 3-chain

	snap := s.Registry().Snapshot()
	if snap.Mutations["update/ok"] != 1 || snap.Mutations["retract/ok"] != 1 {
		t.Errorf("mutation counters: %v", snap.Mutations)
	}
	if snap.StoreSeq != 2 {
		t.Errorf("store seq gauge = %d, want 2", snap.StoreSeq)
	}
	if snap.StoreBaseFacts != 2 {
		t.Errorf("base facts gauge = %d, want 2", snap.StoreBaseFacts)
	}
}

// TestMutationDoesNotRunTheFixpoint: a write touches base facts only.
// The served program's cnt relation has no finite fixpoint, so a write
// path that evaluated the program (a goal-free materialization did) runs
// until the request times out — after the write was applied — and leaves
// hundreds of megabytes behind. A mutation must be acknowledged promptly
// and allocate next to nothing, whatever the rules derive.
func TestMutationDoesNotRunTheFixpoint(t *testing.T) {
	src := `cnt(X) :- zero(X).
cnt(Y) :- cnt(X), succ(X,Y).
r(X,Y) :- e(X,Y).
zero(0). e(1,2).
`
	_, ts := newTestServer(t, Config{Source: src})

	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	start := time.Now()
	resp, out := postJSON(t, ts.URL+"/update", `{"facts": ["e(2,3)"], "timeout_ms": 2000}`)
	elapsed := time.Since(start)
	runtime.ReadMemStats(&after)

	if resp.StatusCode != http.StatusOK {
		t.Fatalf("update status %d after %s: %v", resp.StatusCode, elapsed, out)
	}
	if elapsed > time.Second {
		t.Errorf("update took %s of its 2s timeout", elapsed)
	}
	if grown := int64(after.HeapAlloc) - int64(before.HeapAlloc); grown > 4<<20 {
		t.Errorf("heap grew %d bytes across one base-fact write", grown)
	}
	_, out = postQuery(t, ts.URL, `{"goal": "r(X,Y)"}`)
	if got := fmt.Sprint(out["answers"]); got != "[[1 2] [2 3]]" {
		t.Errorf("r(X,Y) after the write = %s, want [[1 2] [2 3]]", got)
	}
}

// TestMutationRejections pins the write path's client errors: derived
// predicates, non-ground facts, unparsable facts, arity mismatches, and
// wrong methods. None of them may move the store's version.
func TestMutationRejections(t *testing.T) {
	s, ts := newTestServer(t, Config{Source: chainSrc})
	cases := []struct {
		name, url, body string
		status          int
	}{
		{"derived predicate", "/update", `{"facts": ["a(9,9)"]}`, http.StatusBadRequest},
		{"non-ground", "/update", `{"facts": ["p(X,1)"]}`, http.StatusBadRequest},
		{"not a fact", "/update", `{"facts": ["p(1,2) :- q(2)"]}`, http.StatusBadRequest},
		{"empty", "/update", `{"facts": []}`, http.StatusBadRequest},
		{"arity mismatch", "/update", `{"facts": ["p(1,2,3)"]}`, http.StatusBadRequest},
		{"bad json", "/retract", `{"facts": 7}`, http.StatusBadRequest},
		{"derived retract", "/retract", `{"facts": ["a(1,2)"]}`, http.StatusBadRequest},
	}
	for _, tc := range cases {
		resp, out := postJSON(t, ts.URL+tc.url, tc.body)
		if resp.StatusCode != tc.status {
			t.Errorf("%s: status %d, want %d (%v)", tc.name, resp.StatusCode, tc.status, out)
		}
	}
	resp, err := http.Get(ts.URL + "/update")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /update: status %d", resp.StatusCode)
	}
	if v := s.Store().Current(); v.Seq != 0 {
		t.Errorf("rejected mutations moved the version to seq %d", v.Seq)
	}
	snap := s.Registry().Snapshot()
	if snap.Mutations["update/error"] != 5 || snap.Mutations["retract/error"] != 2 {
		t.Errorf("mutation error counters: %v", snap.Mutations)
	}
}

// TestMutationsRefusedWhileDraining: the drain that stops admitting
// queries stops admitting writes too.
func TestMutationsRefusedWhileDraining(t *testing.T) {
	s, ts := newTestServer(t, Config{Source: chainSrc})
	s.BeginDrain()
	resp, out := postJSON(t, ts.URL+"/update", `{"facts": ["p(4,5)"]}`)
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Errorf("update while draining: status %d (%v)", resp.StatusCode, out)
	}
}

// TestStoreRecovery: mutations survive a clean close and reopen, both
// from the log alone and through a checkpoint + log-truncation cycle:
// recovery owns the base facts and the sequence number, both exactly.
func TestStoreRecovery(t *testing.T) {
	dir := t.TempDir()
	src := chainSrc
	cfg := StoreConfig{WALDir: dir, SnapshotEvery: 3}

	st := newTestStore(t, src, cfg)
	mustMutate(t, st, wal.OpUpdate, fact("p", "4", "5"), fact("p", "5", "6"))
	mustMutate(t, st, wal.OpRetract, fact("p", "1", "2"))
	preClose := fmt.Sprint(arenaRows(st.Current().EDB, "p"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Two updates and a retract: recovery must replay all three.
	st2 := newTestStore(t, src, cfg)
	v := st2.Current()
	if v.Seq != 2 {
		t.Fatalf("recovered seq = %d, want 2", v.Seq)
	}
	if got := fmt.Sprint(v.EDB.Facts("p")); got != "[[2 3] [3 4] [4 5] [5 6]]" {
		t.Fatalf("recovered base facts: %s", got)
	}
	// WAL replay applies the same operations in the same order the live
	// store did, so it rebuilds the arena identically — same rows in the
	// same slots, not merely the same set.
	if got := fmt.Sprint(arenaRows(v.EDB, "p")); got != preClose {
		t.Fatalf("wal replay changed arena row order:\ngot  %s\nwant %s", got, preClose)
	}

	// Cross the checkpoint threshold: snapshot written, log truncated.
	mustMutate(t, st2, wal.OpUpdate, fact("p", "6", "7"))
	if _, err := os.Stat(filepath.Join(dir, "snapshot.db")); err != nil {
		t.Fatalf("no checkpoint after %d mutations: %v", 3, err)
	}
	if fi, err := os.Stat(filepath.Join(dir, "wal.log")); err != nil || fi.Size() != 0 {
		t.Fatalf("log not truncated after checkpoint (size %d, err %v)", fi.Size(), err)
	}
	mustMutate(t, st2, wal.OpUpdate, fact("p", "7", "8"))
	st2.Close()

	// Recovery now stacks snapshot + newer log records.
	st3 := newTestStore(t, src, cfg)
	v = st3.Current()
	if v.Seq != 4 {
		t.Fatalf("recovered seq = %d, want 4", v.Seq)
	}
	if got := fmt.Sprint(v.EDB.Facts("p")); got != "[[2 3] [3 4] [4 5] [5 6] [6 7] [7 8]]" {
		t.Fatalf("recovered base facts: %s", got)
	}
	// Checkpoint + log recovery is deterministic down to arena row order:
	// a second recovery from the same directory rebuilds the same arena
	// row-for-row (the snapshot's sorted rows, then log records in order).
	rowsA := fmt.Sprint(arenaRows(v.EDB, "p"))
	if err := st3.Close(); err != nil {
		t.Fatal(err)
	}
	st3 = newTestStore(t, src, cfg)
	v = st3.Current()
	if got := fmt.Sprint(arenaRows(v.EDB, "p")); got != rowsA {
		t.Fatalf("checkpoint recovery is not row-order deterministic:\nfirst  %s\nsecond %s", rowsA, got)
	}

	// The recovered store keeps counting from the recovered seq.
	if seq := mustMutate(t, st3, wal.OpUpdate, fact("p", "8", "9")); seq != 5 {
		t.Fatalf("first write after recovery acked seq %d, want 5", seq)
	}
	v = st3.Current()
	if v.Seq != 5 {
		t.Fatalf("seq after the write = %d, want 5", v.Seq)
	}
	if got := fmt.Sprint(v.EDB.Facts("p")); got != "[[2 3] [3 4] [4 5] [5 6] [6 7] [7 8] [8 9]]" {
		t.Fatalf("base facts after the write: %s", got)
	}
}

// TestConcurrentReadersSeeConsistentVersions is the -race pinning test:
// while a writer extends a chain one edge per mutation, readers pin
// versions and check the version's own invariant — a version at Seq n
// holds exactly the initial facts plus n edges, and an evaluation
// against the pinned base state sees the matching closure. A reader
// racing the applier on shared state would trip the race detector;
// a reader observing a half-applied batch would break the invariant.
func TestConcurrentReadersSeeConsistentVersions(t *testing.T) {
	src := `a(X,Y) :- p(X,Z), a(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
p(1,2).
`
	st := newTestStore(t, src, StoreConfig{})
	prog, _, err := existdlog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}

	const writes = 40
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := st.Current()
				n := int(v.Seq) + 1 // edges in this version's chain
				if got := v.EDB.Count("p"); got != n {
					t.Errorf("version seq %d has %d edges, want %d", v.Seq, got, n)
					return
				}
				res, err := engine.Eval(prog, v.EDB, engine.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if got, want := res.DB.Count("a"), n*(n+1)/2; got != want {
					t.Errorf("pinned version seq %d: closure %d, want %d", v.Seq, got, want)
					return
				}
			}
		}()
	}
	for i := 0; i < writes; i++ {
		mustMutate(t, st, wal.OpUpdate, fact("p", fmt.Sprint(i+2), fmt.Sprint(i+3)))
	}
	close(stop)
	wg.Wait()

	v := st.Current()
	if v.Seq != writes {
		t.Fatalf("final seq = %d, want %d", v.Seq, writes)
	}
	if got := v.EDB.Count("p"); got != writes+1 {
		t.Errorf("final version has %d edges, want %d", got, writes+1)
	}
}

// TestConcurrentReadersProbeSharedIndexes is the -race test for indexes
// shared across a version's readers. The rule is left-linear, so the
// planner makes every evaluation probe the version's p by its first column,
// and the readers of one version race to build and probe one shared index
// while the applier clones that version for the next write. Every third
// write is a retract, so some versions rebuild p instead of extending it.
// A reader that saw a sibling's index over other rows would derive the
// wrong closure.
func TestConcurrentReadersProbeSharedIndexes(t *testing.T) {
	src := `a(X,Y) :- a(X,Z), p(Z,Y).
a(X,Y) :- p(X,Y).
?- a(X,Y).
p(1,2).
`
	st := newTestStore(t, src, StoreConfig{})
	prog, _, err := existdlog.Parse(src)
	if err != nil {
		t.Fatal(err)
	}

	// The write schedule, and the chain length each version holds: the
	// chain grows by one edge per update and loses its last edge per
	// retract, so every version is a contiguous chain 1 → tail.
	type write struct {
		op   wal.Op
		edge wal.Fact
	}
	var writes []write
	edges := []int{1} // edges at seq 0
	tail := 2
	for i := 0; len(writes) < 40; i++ {
		if i%3 == 2 {
			writes = append(writes, write{wal.OpRetract, fact("p", fmt.Sprint(tail-1), fmt.Sprint(tail))})
			tail--
		} else {
			writes = append(writes, write{wal.OpUpdate, fact("p", fmt.Sprint(tail), fmt.Sprint(tail+1))})
			tail++
		}
		edges = append(edges, tail-1)
	}

	var wg sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				v := st.Current()
				n := edges[v.Seq]
				if got := v.EDB.Count("p"); got != n {
					t.Errorf("version seq %d has %d edges, want %d", v.Seq, got, n)
					return
				}
				res, err := engine.Eval(prog, v.EDB, engine.Options{})
				if err != nil {
					t.Error(err)
					return
				}
				if got, want := res.DB.Count("a"), n*(n+1)/2; got != want {
					t.Errorf("pinned version seq %d: closure %d, want %d", v.Seq, got, want)
					return
				}
			}
		}()
	}
	for _, w := range writes {
		mustMutate(t, st, w.op, w.edge)
	}
	close(stop)
	wg.Wait()

	v := st.Current()
	if int(v.Seq) != len(writes) {
		t.Fatalf("final seq = %d, want %d", v.Seq, len(writes))
	}
	if got := v.EDB.Count("p"); got != edges[len(writes)] {
		t.Errorf("final version has %d edges, want %d", got, edges[len(writes)])
	}
}

// TestStoreBatching: concurrent writers group-commit. The batch-size
// histogram must account for every mutation exactly once, and the
// number of fsyncs must not exceed the number of batches.
func TestStoreBatching(t *testing.T) {
	reg := obs.NewRegistry()
	st := newTestStore(t, "a(X,Y) :- p(X,Y).\n?- a(X,Y).\np(0,0).",
		StoreConfig{WALDir: t.TempDir(), Registry: reg})
	const writers, each = 8, 10
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				_, err := st.Mutate(context.Background(),
					Mutation{Op: wal.OpUpdate, Facts: []wal.Fact{fact("p", fmt.Sprint(w), fmt.Sprint(i))}})
				if err != nil {
					t.Error(err)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	snap := reg.Snapshot()
	if got := int(snap.BatchSize.Sum); got != writers*each {
		t.Errorf("batch-size histogram accounted %d mutations, want %d", got, writers*each)
	}
	if snap.WALRecords != writers*each {
		t.Errorf("wal records = %d, want %d", snap.WALRecords, writers*each)
	}
	batches := int64(0)
	for _, c := range snap.BatchSize.Counts {
		batches += c
	}
	if snap.WALSyncs > batches {
		t.Errorf("more fsyncs (%d) than batches (%d): group commit is not grouping", snap.WALSyncs, batches)
	}
	if v := st.Current(); v.Seq != writers*each {
		t.Errorf("final seq %d, want %d", v.Seq, writers*each)
	}
}

// TestStoreCrashHelper is the SIGKILL victim: it opens a durable store
// and writes edges forever, printing each edge only after its ack. Run
// only as a subprocess of TestStoreCrashRecovery.
func TestStoreCrashHelper(t *testing.T) {
	dir := os.Getenv("EXISTDLOG_STORE_CRASH_DIR")
	if dir == "" {
		t.Skip("subprocess helper")
	}
	prog, db, err := existdlog.Parse(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStore(prog, db, StoreConfig{WALDir: dir, SnapshotEvery: 5})
	if err != nil {
		t.Fatal(err)
	}
	for i := 4; ; i++ {
		_, err := st.Mutate(context.Background(), Mutation{
			Op:    wal.OpUpdate,
			Facts: []wal.Fact{fact("p", fmt.Sprint(i), fmt.Sprint(i+1))},
		})
		if err != nil {
			return
		}
		// The ack means the record is fsync'd: it must survive SIGKILL.
		fmt.Printf("acked %d\n", i)
	}
}

// TestStoreCrashRecovery SIGKILLs a store mid-write-burst and verifies
// that recovery reproduces every acknowledged write and exactly the
// base state and sequence number of a prefix of the helper's run.
func TestStoreCrashRecovery(t *testing.T) {
	if testing.Short() {
		t.Skip("spawns a subprocess")
	}
	dir := t.TempDir()
	cmd := exec.Command(os.Args[0], "-test.run=^TestStoreCrashHelper$", "-test.v")
	cmd.Env = append(os.Environ(), "EXISTDLOG_STORE_CRASH_DIR="+dir)
	out, err := cmd.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	cmd.Stderr = cmd.Stdout
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Let a burst of acknowledged writes through, then SIGKILL with the
	// helper still writing.
	lastAcked := 0
	sc := bufio.NewScanner(out)
	for sc.Scan() {
		var n int
		if _, err := fmt.Sscanf(sc.Text(), "acked %d", &n); err == nil {
			lastAcked = n
			if n >= 15 {
				break
			}
		}
	}
	if lastAcked < 15 {
		cmd.Process.Kill()
		cmd.Wait()
		t.Fatalf("helper died before the burst (last ack %d)", lastAcked)
	}
	if err := cmd.Process.Kill(); err != nil { // SIGKILL
		t.Fatal(err)
	}
	cmd.Wait()

	// Recover in-process from the same directory.
	st := newTestStore(t, chainSrc, StoreConfig{WALDir: dir, SnapshotEvery: 5})
	v := st.Current()
	for i := 4; i <= lastAcked; i++ {
		if !contains(v.EDB.Facts("p"), []string{fmt.Sprint(i), fmt.Sprint(i + 1)}) {
			t.Fatalf("acknowledged edge p(%d,%d) lost in the crash", i, i+1)
		}
	}
	// Unacked writes may or may not have landed, but the surviving state
	// must be a prefix of the helper's sequence: the three source edges
	// plus p(4,5) .. p(3+seq,4+seq), nothing else and no gap.
	if got, want := v.EDB.Count("p"), 3+int(v.Seq); got != want {
		t.Fatalf("seq %d recovered with %d edges, want %d", v.Seq, got, want)
	}
	rows := v.EDB.Facts("p")
	for i := 1; i <= 3+int(v.Seq); i++ {
		if !contains(rows, []string{fmt.Sprint(i), fmt.Sprint(i + 1)}) {
			t.Fatalf("recovered state at seq %d is missing p(%d,%d)", v.Seq, i, i+1)
		}
	}
	// Crash recovery rebuilds the arena deterministically: the helper's
	// run crossed checkpoint thresholds, so recovery stacks a snapshot's
	// sorted rows plus the log tail — and a second recovery from the same
	// crashed directory must land every row in the same arena slot. (The
	// SIGKILL lands mid-write, so this also exercises the torn-tail replay
	// path against the arena store.)
	rowsFirst := fmt.Sprint(arenaRows(v.EDB, "p"))
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	recovered := v.Seq
	st = newTestStore(t, chainSrc, StoreConfig{WALDir: dir, SnapshotEvery: 5})
	v = st.Current()
	if v.Seq != recovered {
		t.Fatalf("second recovery landed on seq %d, first on %d", v.Seq, recovered)
	}
	if got := fmt.Sprint(arenaRows(v.EDB, "p")); got != rowsFirst {
		t.Fatalf("crash recovery is not row-order deterministic:\nfirst  %s\nsecond %s", rowsFirst, got)
	}

	// The recovered store takes writes again, counting on from there.
	if seq := mustMutate(t, st, wal.OpUpdate, fact("p", "0", "1")); seq != recovered+1 {
		t.Fatalf("first write after recovery acked seq %d, want %d", seq, recovered+1)
	}
	if v = st.Current(); !contains(v.EDB.Facts("p"), []string{"0", "1"}) {
		t.Fatal("write after recovery is not in the installed version")
	}
}

// TestStoreRecoverySeqSkip pins the replay guard (rec.Seq <= snapshot
// seq → skip) against the arena store: a checkpoint that already covers
// a log prefix is authoritative for that prefix — its rows land in the
// arena in snapshot order and the covered records are not re-applied —
// while records past the checkpoint still replay on top, in order.
func TestStoreRecoverySeqSkip(t *testing.T) {
	dir := t.TempDir()
	cfg := StoreConfig{WALDir: dir, SnapshotEvery: 100}
	st := newTestStore(t, chainSrc, cfg)
	mustMutate(t, st, wal.OpUpdate, fact("p", "4", "5")) // seq 1
	mustMutate(t, st, wal.OpUpdate, fact("p", "5", "6")) // seq 2
	mustMutate(t, st, wal.OpUpdate, fact("p", "6", "7")) // seq 3
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// Hand-write a checkpoint at seq 2 WITHOUT truncating the log. Its
	// state intentionally diverges from the log prefix (p(7,8) instead of
	// p(4,5)/p(5,6)): if recovery re-applied records 1 or 2, the divergent
	// rows would reappear and betray the double-apply.
	_, db, err := existdlog.Parse(chainSrc)
	if err != nil {
		t.Fatal(err)
	}
	db.Add("p", "7", "8")
	if err := wal.WriteSnapshotFile(filepath.Join(dir, snapFile), 2, db); err != nil {
		t.Fatal(err)
	}

	st2 := newTestStore(t, chainSrc, cfg)
	v := st2.Current()
	if v.Seq != 3 {
		t.Fatalf("recovered seq = %d, want 3", v.Seq)
	}
	got := fmt.Sprint(arenaRows(v.EDB, "p"))
	// Snapshot rows restore in sorted order, then record 3 appends p(6,7).
	want := fmt.Sprint([][]string{{"1", "2"}, {"2", "3"}, {"3", "4"}, {"7", "8"}, {"6", "7"}})
	if got != want {
		t.Fatalf("seq-skip recovery arena:\ngot  %s\nwant %s", got, want)
	}
}

func contains(rows [][]string, row []string) bool {
	for _, r := range rows {
		if fmt.Sprint(r) == fmt.Sprint(row) {
			return true
		}
	}
	return false
}

// TestMutateClosedStore: a closed store fails writes instead of
// hanging.
func TestMutateClosedStore(t *testing.T) {
	st := newTestStore(t, chainSrc, StoreConfig{})
	st.Close()
	_, err := st.Mutate(context.Background(), Mutation{Op: wal.OpUpdate, Facts: []wal.Fact{fact("p", "9", "9")}})
	if err == nil {
		t.Fatal("mutate on a closed store succeeded")
	}
	if _, err := st.Mutate(context.Background(), Mutation{Op: "bogus"}); err == nil {
		t.Fatal("bogus op accepted")
	}
}
