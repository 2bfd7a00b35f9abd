package server

import (
	"fmt"
	"net/http"
	"regexp"
	"strings"
	"sync"
	"testing"
)

// A compiled entry remembers the relation sizes its last complete run
// ended with, and the next run sizes its derived storage from them. The
// tests here check that nobody can tell from a response: a goal answers
// byte for byte the same cold, warm, after a larger answer of the same
// pattern (its storage now over-sized) and after a smaller one
// (under-sized), its stats included.

// volatileFields matches the response fields that differ between two
// servings of one goal whatever the storage: the request id, the
// compile-cache flag and the wall-clock time.
var volatileFields = regexp.MustCompile(`"(request|cached|elapsed_seconds)": *("[^"]*"|[^,}\s]*)`)

// stableBody serves body and returns the response with its volatile
// fields blanked. It may run on any goroutine.
func stableBody(t testing.TB, h http.Handler, body string) string {
	t.Helper()
	rec := serveBody(t, h, body)
	if rec.Code != http.StatusOK {
		t.Errorf("%s: status %d: %s", body, rec.Code, rec.Body)
	}
	return volatileFields.ReplaceAllString(rec.Body.String(), `"$1":_`)
}

// hintSrc is a 120-edge chain with a spur off every tenth node: tc(nK,X)
// is served by the chain rewrite, and the further along the start node,
// the fewer facts its evaluation derives.
func hintSrc() string {
	var src strings.Builder
	src.WriteString("tc(X,Y) :- e(X,Z), tc(Z,Y).\ntc(X,Y) :- e(X,Y).\n")
	for i := 0; i < 120; i++ {
		fmt.Fprintf(&src, "e(n%d,n%d).\n", i, i+1)
		if i%10 == 0 {
			fmt.Fprintf(&src, "e(n%d,s%d).\n", i, i)
		}
	}
	return src.String()
}

func TestSizeHintsInvisibleServed(t *testing.T) {
	s, err := New(Config{Source: hintSrc()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	const goal = `{"goal": "tc(n60,X)", "trace": true}`
	cold := stableBody(t, h, goal)
	if !strings.Contains(cold, `"count": 66,`) {
		t.Fatalf("tc(n60,X) answered %s", cold)
	}
	steps := []struct{ name, before string }{
		{"warm", ""},
		{"over-hint", `{"goal": "tc(n0,X)"}`},
		{"under-hint", `{"goal": "tc(n115,X)"}`},
	}
	for _, step := range steps {
		if step.before != "" {
			stableBody(t, h, step.before)
		}
		if got := stableBody(t, h, goal); got != cold {
			t.Errorf("%s: body differs from the cold one:\n%s", step.name, diffLines([]byte(cold), []byte(got)))
		}
	}
}

// TestSizeHintsConcurrentServed serves goals of one pattern with answers
// of different sizes from several goroutines at once, so each run reads
// the hints whichever run finished last left: every response must still
// be the one the goal gives served alone. Run under -race.
func TestSizeHintsConcurrentServed(t *testing.T) {
	s, err := New(Config{Source: hintSrc()})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	h := s.Handler()
	var bodies, want []string
	for _, k := range []int{0, 30, 60, 90, 115} {
		body := fmt.Sprintf(`{"goal": "tc(n%d,X)", "trace": true}`, k)
		bodies = append(bodies, body)
		want = append(want, stableBody(t, h, body))
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				j := (i + g) % len(bodies)
				if got := stableBody(t, h, bodies[j]); got != want[j] {
					t.Errorf("%s served concurrently differs:\n%s", bodies[j], diffLines([]byte(want[j]), []byte(got)))
					return
				}
			}
		}(g)
	}
	wg.Wait()
}
