package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"existdlog/internal/prepare"
)

// escapeSrc serves constants that need JSON escapes: quotes, a
// backslash, the HTML-escaped <, > and &, U+2028, and non-ASCII.
const escapeSrc = `q(X,Y) :- e(X,Y).
q(X,Y) :- e(X,Z), q(Z,Y).
ok :- e(X,Y).
none(X) :- e(X,X).
e('say "hi"', 'back\slash').
e('back\slash', '<a & b>').
e('<a & b>', 'line` + " " + `sep').
e('line` + " " + `sep', 'Zürich').
e('Zürich', '日本').
e(n10, n2).
e(n2, 'say "hi"').
`

// serveBody runs one /query through the handler and returns the
// recorded response.
func serveBody(t testing.TB, h http.Handler, body string) *httptest.ResponseRecorder {
	t.Helper()
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	return rec
}

// TestQueryBodyMatchesWriteJSON: the spliced /query body is byte for
// byte what writeJSON writes for the same response with its answers
// decoded into Answers — escapes, zero answers, arity-0 rows, a bound
// chain goal, the trace's rules and passes, and a partial result.
func TestQueryBodyMatchesWriteJSON(t *testing.T) {
	escapes, err := New(Config{Source: escapeSrc, FlightSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer escapes.Close()
	chain, err := New(Config{Source: chainSrc, FlightSize: 16})
	if err != nil {
		t.Fatal(err)
	}
	defer chain.Close()
	count, err := New(Config{Source: countSrc})
	if err != nil {
		t.Fatal(err)
	}
	defer count.Close()

	cases := []struct {
		name    string
		s       *Server
		body    string
		partial bool
		rows    int
	}{
		{"escapes", escapes, `{"goal": "q(X,Y)"}`, false, 28},
		{"escapes bound", escapes, `{"goal": "q(X,'日本')"}`, false, 7},
		{"zero answers", escapes, `{"goal": "none(X)"}`, false, 0},
		{"unknown constant", escapes, `{"goal": "q(nowhere,Y)"}`, false, 0},
		{"arity 0", escapes, `{"goal": "ok"}`, false, 1},
		{"chain goal", chain, `{"goal": "a(1,Y)"}`, false, 3},
		{"trace", chain, `{"goal": "a(X,Y)", "trace": true}`, false, 6},
		{"partial", count, `{"goal": "n(X)", "timeout_ms": 20, "trace": true}`, true, -1},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			rec := serveBody(t, c.s.Handler(), c.body)
			if rec.Code != http.StatusOK {
				t.Fatalf("status %d: %s", rec.Code, rec.Body)
			}
			var resp queryResponse
			if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil {
				t.Fatal(err)
			}
			if resp.Partial != c.partial || (c.partial && resp.Incomplete == "") {
				t.Fatalf("partial = %v, incomplete = %q", resp.Partial, resp.Incomplete)
			}
			if c.rows >= 0 && len(resp.Answers) != c.rows {
				t.Fatalf("%d answers, want %d", len(resp.Answers), c.rows)
			}
			if strings.Contains(c.body, "trace") && (len(resp.Rules) == 0 || len(resp.Passes) == 0) {
				t.Fatalf("trace: %d rules, %d passes", len(resp.Rules), len(resp.Passes))
			}
			want := httptest.NewRecorder()
			writeJSON(want, http.StatusOK, resp)
			if !bytes.Equal(rec.Body.Bytes(), want.Body.Bytes()) {
				t.Errorf("body differs from writeJSON:\n%s", diffLines(want.Body.Bytes(), rec.Body.Bytes()))
			}
			if got, want := rec.Header().Get("Content-Type"), want.Header().Get("Content-Type"); got != want {
				t.Errorf("Content-Type %q, want %q", got, want)
			}
		})
	}
}

// wideSrc serves q(X,Y,Z) over rows built from the same 20 constants
// c0..c19, however many rows there are.
func wideSrc(rows int) string {
	var b strings.Builder
	b.WriteString("q(X,Y,Z) :- r(X,Y,Z).\n")
	for i := 0; i < rows; i++ {
		fmt.Fprintf(&b, "r(c%d,c%d,c%d).\n", i%20, (i/20)%20, (i/400+i%10)%20)
	}
	return b.String()
}

// TestQueryRespondAllocsFlat: 100× the answer rows over the same
// distinct constants cost the handler at most a small constant number of
// extra allocations — the amortized growth of the evaluated relation —
// so the respond path allocates nothing per row.
func TestQueryRespondAllocsFlat(t *testing.T) {
	allocs := func(rows int) float64 {
		s, err := New(Config{Source: wideSrc(rows), FlightSize: 1024})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		h := s.Handler()
		const body = `{"goal": "q(X,Y,Z)"}`
		rec := serveBody(t, h, body)
		var resp queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Count != rows {
			t.Fatalf("%d rows: count %d, %v", rows, resp.Count, err)
		}
		// discardWriter drops the body, so a growing recorder buffer
		// does not count against the handler.
		return testing.AllocsPerRun(10, func() {
			h.ServeHTTP(discardWriter{http.Header{}}, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		})
	}
	small, large := allocs(20), allocs(2000)
	if large-small > 40 {
		t.Errorf("handler: %.0f allocs for 20 rows, %.0f for 2000: the respond path allocates per row", small, large)
	}
}

// BenchmarkQueryClosure serves the full closure tc(X,Y) of a seeded
// 300-node, 450-edge random digraph through the handler with serve's
// flight recorder (flight1024) and without it (flight0): evaluation,
// answer ordering and the response writer.
func BenchmarkQueryClosure(b *testing.B) {
	for _, flight := range []int{1024, 0} {
		b.Run(fmt.Sprintf("flight%d", flight), func(b *testing.B) { benchClosure(b, flight) })
	}
}

// benchClosure is one BenchmarkQueryClosure sub-benchmark, serving with a
// flight recorder of the given size.
func benchClosure(b *testing.B, flight int) {
	rng := rand.New(rand.NewSource(1))
	var src strings.Builder
	src.WriteString("tc(X,Y) :- e(X,Y).\ntc(X,Y) :- e(X,Z), tc(Z,Y).\n")
	seen := map[[2]int]bool{}
	for len(seen) < 450 {
		e := [2]int{rng.Intn(300), rng.Intn(300)}
		if e[0] != e[1] && !seen[e] {
			seen[e] = true
			fmt.Fprintf(&src, "e(n%d,n%d).\n", e[0], e[1])
		}
	}
	s, err := New(Config{Source: src.String(), FlightSize: flight})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	const body = `{"goal": "tc(X,Y)"}`
	rec := serveBody(b, h, body)
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Count == 0 {
		b.Fatalf("status %d, %v: %.200s", rec.Code, err, rec.Body)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(discardWriter{http.Header{}}, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	}
	b.ReportMetric(float64(resp.Count), "rows")
}

// existsCutSource writes an exists_cut-shaped program: 200 access chains
// of 60 routers linked hop by hop, four in five of them uplinked to three
// of 12 cores at their tail, a quarter of those bridged into a random
// 400-node mesh (some of whose nodes uplink too), 1 000 edge routers to
// ask about, and a heartbeat disconnected from them all. The optimizer
// projects reach(R,S) to a unary reach and cuts the heartbeat boolean.
func existsCutSource(rng *rand.Rand) string {
	const chains, hops, mesh, cores = 200, 60, 400, 12
	var src strings.Builder
	src.WriteString(`live(R) :- edge(R), reach(R,S), heartbeat(C).
reach(R,S) :- link(R,M), reach(M,S).
reach(R,S) :- uplink(R,S).
heartbeat(collector_a).
heartbeat(collector_b).
`)
	for c := 0; c < chains; c++ {
		tail := (c+1)*hops - 1
		for i := c * hops; i < tail; i++ {
			fmt.Fprintf(&src, "link(r%d,r%d).\n", i, i+1)
		}
		if c%5 == 4 { // dead end: nothing down this chain uplinks
			continue
		}
		for _, k := range rng.Perm(cores)[:3] {
			fmt.Fprintf(&src, "uplink(r%d,core%d).\n", tail, k)
		}
		if c%4 == 0 {
			fmt.Fprintf(&src, "link(r%d,m%d).\n", tail, rng.Intn(mesh))
		}
	}
	for i := 0; i < 2*mesh; i++ {
		fmt.Fprintf(&src, "link(m%d,m%d).\n", rng.Intn(mesh), rng.Intn(mesh))
	}
	for i := 0; i < mesh/4; i++ {
		fmt.Fprintf(&src, "uplink(m%d,core%d).\n", rng.Intn(mesh), rng.Intn(cores))
	}
	for i := 0; i < 950; i++ {
		fmt.Fprintf(&src, "edge(r%d).\n", rng.Intn(chains*hops))
	}
	for i := 0; i < 50; i++ {
		fmt.Fprintf(&src, "edge(m%d).\n", rng.Intn(mesh))
	}
	return src.String()
}

// BenchmarkQueryExistsCut serves live(R) over an exists_cut-shaped
// program through the handler, with serve's flight recorder (flight1024)
// and without it (flight0). Every request pins the same store version, so
// its base relations' indexes are built once and probed by every request
// after the first.
func BenchmarkQueryExistsCut(b *testing.B) {
	for _, flight := range []int{1024, 0} {
		b.Run(fmt.Sprintf("flight%d", flight), func(b *testing.B) { benchExistsCut(b, flight) })
	}
}

// benchExistsCut is one BenchmarkQueryExistsCut sub-benchmark, serving
// with a flight recorder of the given size.
func benchExistsCut(b *testing.B, flight int) {
	s, err := New(Config{Source: existsCutSource(rand.New(rand.NewSource(1))), FlightSize: flight})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	const body = `{"goal": "live(R)"}`
	rec := serveBody(b, h, body)
	var resp queryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Count == 0 {
		b.Fatalf("status %d, %v: %.200s", rec.Code, err, rec.Body)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(discardWriter{http.Header{}}, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
	}
	b.ReportMetric(float64(resp.Count), "rows")
}

// BenchmarkQueryPointDeep is the point_deep workload in process: tc(k,X)
// over a 400-edge chain, asked in turn for 16 start nodes spread evenly
// along it, through the handler. The goals differ only in their constant,
// so after the first request every op is a compile-cache hit that runs
// the chain rewrite's seeded monadic program. flight1024 serves with
// serve's default flight recorder, flight0 with FlightSize 0 (tracing
// off), so the difference is the recorder's cost per request.
func BenchmarkQueryPointDeep(b *testing.B) {
	for _, flight := range []int{1024, 0} {
		b.Run(fmt.Sprintf("flight%d", flight), func(b *testing.B) { benchPointDeep(b, flight) })
	}
}

// benchPointDeep is one BenchmarkQueryPointDeep sub-benchmark, serving
// with a flight recorder of the given size.
func benchPointDeep(b *testing.B, flight int) {
	const edges, pool = 400, 16
	var src strings.Builder
	src.WriteString("tc(X,Y) :- e(X,Z), tc(Z,Y).\ntc(X,Y) :- e(X,Y).\n")
	for i := 0; i < edges; i++ {
		fmt.Fprintf(&src, "e(n%d,n%d).\n", i, i+1)
	}
	bodies := make([]string, pool)
	for j := range bodies {
		bodies[j] = fmt.Sprintf(`{"goal": "tc(n%d,X)"}`, j*edges/pool)
	}
	s, err := New(Config{Source: src.String(), FlightSize: flight})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	q, err := parseGoal("tc(n0,X)")
	if err != nil {
		b.Fatal(err)
	}
	if c, _, _ := s.compile(q); c.Rewrite != prepare.Chain {
		b.Fatal("tc(k,X) compiled without the chain rewrite")
	}
	h := s.Handler()
	for j, body := range bodies {
		var resp queryResponse
		rec := serveBody(b, h, body)
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Count != edges-j*edges/pool || !resp.Cached {
			b.Fatalf("%s: status %d, count %d, cached %v, %v", body, rec.Code, resp.Count, resp.Cached, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		h.ServeHTTP(discardWriter{http.Header{}}, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(bodies[i%pool])))
	}
}

// BenchmarkMixedRW is the mixed_rw workload in process: on a 200-edge
// chain served with a WAL (fsync on every acknowledged write), one op is
// a transaction through the handler — /update adds an edge from a new node
// to the chain's head, tc(X,tail) reads it back, /retract removes it and
// tc(X,tail) reads again. flight1024 serves with serve's default flight
// recorder, flight0 with tracing off.
func BenchmarkMixedRW(b *testing.B) {
	for _, flight := range []int{1024, 0} {
		b.Run(fmt.Sprintf("flight%d", flight), func(b *testing.B) { benchMixedRW(b, flight) })
	}
}

// benchMixedRW is one BenchmarkMixedRW sub-benchmark, serving with a
// flight recorder of the given size.
func benchMixedRW(b *testing.B, flight int) {
	const edges = 200
	var src strings.Builder
	src.WriteString("tc(X,Y) :- e(X,Z), tc(Z,Y).\ntc(X,Y) :- e(X,Y).\n")
	for i := 0; i < edges; i++ {
		fmt.Fprintf(&src, "e(n%d,n%d).\n", i, i+1)
	}
	// SnapshotEvery is serve's default checkpoint interval.
	s, err := New(Config{Source: src.String(), WALDir: b.TempDir(), SnapshotEvery: 1024, FlightSize: flight})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	read := fmt.Sprintf(`{"goal": "tc(X,n%d)"}`, edges)
	// txn lists one transaction's requests as (path, body) pairs.
	txn := func(u string) [4][2]string {
		fact := fmt.Sprintf(`{"facts": ["e(%s,n0)"]}`, u)
		return [4][2]string{{"/update", fact}, {"/query", read}, {"/retract", fact}, {"/query", read}}
	}
	// The set-up transaction pays for the store's first-write
	// materialization and checks what the timed ones do: the read after
	// the update sees the new node, the read after the retract does not.
	for i, req := range txn("s0") {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, req[0], strings.NewReader(req[1])))
		if rec.Code != http.StatusOK {
			b.Fatalf("%s: status %d: %.200s", req[0], rec.Code, rec.Body)
		}
		if req[0] != "/query" {
			continue
		}
		want := edges + 1 - i/2 // requests 1 and 3: with s0, then without
		var resp queryResponse
		if err := json.Unmarshal(rec.Body.Bytes(), &resp); err != nil || resp.Count != want {
			b.Fatalf("read after %s: count %d, want %d, %v", txn("s0")[i-1][0], resp.Count, want, err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, req := range txn(fmt.Sprintf("u%d", i)) {
			h.ServeHTTP(discardWriter{http.Header{}}, httptest.NewRequest(http.MethodPost, req[0], strings.NewReader(req[1])))
		}
	}
}
