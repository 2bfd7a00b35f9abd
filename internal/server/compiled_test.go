package server

import (
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"existdlog"
	"existdlog/internal/ast"
	"existdlog/internal/engine"
	"existdlog/internal/prepare"
)

// compiledSrc is a right-linear closure with a rule constant, m0, that
// the initial facts lack: tc(n0,X) is served by the chain rewrite,
// hub(X) is not.
const compiledSrc = `tc(X,Y) :- e(X,Z), tc(Z,Y).
tc(X,Y) :- e(X,Y).
hub(X) :- tc(X,m0).
e(n0,n1). e(n1,n2). e(n2,n3). e(n3,n4). e(n4,n5). e(n5,n6). e(n6,n7). e(n7,n8).
`

// TestCompiledEntriesServeNewVersions is the -race test for compiled
// entries shared across requests: readers serve a chain goal and a
// non-chain goal, each from its one cached entry, while a writer installs
// versions that intern new constants, m0 among them. Every response must
// hold the answers a scratch evaluation of the program gives over the
// version the response names.
func TestCompiledEntriesServeNewVersions(t *testing.T) {
	const writes = 24
	update := func(i int) string { return fmt.Sprintf("e(n%d,m%d)", i%9, (i+12)%writes) }
	goals := []string{"tc(n0,X)", "hub(X)"}

	prog, db, err := existdlog.Parse(compiledSrc)
	if err != nil {
		t.Fatal(err)
	}
	opts := existdlog.DefaultOptions()
	for i, goal := range goals {
		p, err := prepare.Prepare(prog, parseAtom(t, goal), &opts)
		if err != nil {
			t.Fatal(err)
		}
		if (p.Rewrite == prepare.Chain) != (i == 0) {
			t.Fatalf("%s: rewrite %q", goal, p.Rewrite)
		}
	}
	// want[g][seq] is goal g's scratch answer set over version seq.
	want := make([][]string, len(goals))
	for seq := 0; seq <= writes; seq++ {
		if seq > 0 {
			f := parseAtom(t, update(seq-1))
			db.Add(f.Key(), f.Args[0].Name, f.Args[1].Name)
		}
		for g, goal := range goals {
			raw := prog.Clone()
			raw.Query = parseAtom(t, goal)
			res, err := engine.Eval(raw, db, engine.Options{})
			if err != nil {
				t.Fatal(err)
			}
			want[g] = append(want[g], rowSet(res.Answers(raw.Query)))
		}
	}
	if want[1][0] != "{}" || want[1][writes] == "{}" {
		t.Fatalf("hub(X) answers %s at first and %s at last; the test needs m0 to arrive", want[1][0], want[1][writes])
	}

	s, err := New(Config{Source: compiledSrc})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	var served atomic.Int64
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				g := i % len(goals)
				rec := serveBody(t, h, fmt.Sprintf(`{"goal": %q}`, goals[g]))
				var resp struct {
					Seq     int        `json:"seq"`
					Answers [][]string `json:"answers"`
				}
				if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil {
					t.Errorf("%s: status %d: %s", goals[g], rec.Code, rec.Body)
					return
				}
				if got := rowSet(resp.Answers); got != want[g][resp.Seq] {
					t.Errorf("%s at seq %d: served %s, scratch %s", goals[g], resp.Seq, got, want[g][resp.Seq])
					return
				}
				served.Add(1)
			}
		}(r)
	}
	for i := 0; i < writes; i++ {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/update",
			strings.NewReader(fmt.Sprintf(`{"facts": [%q]}`, update(i)))))
		if rec.Code != http.StatusOK {
			t.Errorf("update %d: status %d: %s", i, rec.Code, rec.Body)
			break
		}
	}
	close(stop)
	wg.Wait()
	t.Logf("%d responses served across %d versions", served.Load(), writes+1)
	for g, goal := range goals {
		if got := stableBody(t, h, fmt.Sprintf(`{"goal": %q}`, goal)); !strings.Contains(got, fmt.Sprintf(`"seq": %d,`, writes)) {
			t.Errorf("%s after the writes: %s", goal, got)
		} else if rows := strings.Count(want[g][writes], " ") + 1; !strings.Contains(got, fmt.Sprintf(`"count": %d,`, rows)) {
			t.Errorf("%s after the writes: %s, want %d answers", goal, got, rows)
		}
	}
}

// parseAtom parses one atom in source syntax.
func parseAtom(t *testing.T, src string) ast.Atom {
	t.Helper()
	p, err := existdlog.ParseProgram("?- " + src + ".")
	if err != nil {
		t.Fatal(err)
	}
	return p.Query
}

// rowSet renders answer rows as a sorted set.
func rowSet(rows [][]string) string {
	out := make([]string, len(rows))
	for i, row := range rows {
		out[i] = strings.Join(row, ",")
	}
	sort.Strings(out)
	return "{" + strings.Join(out, " ") + "}"
}
