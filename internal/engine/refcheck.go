package engine

import (
	"fmt"
	"slices"
	"sync"
)

// refcheck.go retains the seed commit's map-of-strings tuple storage as a
// differential oracle for the columnar arena in relation.go. When tests
// set refCheckEnabled, every Relation mirrors its inserts into a
// refRelation and cross-checks newness, row order, membership, and index
// probes operation by operation — a mismatch panics with both answers,
// which the API-boundary rescue surfaces as an internal error. The oracle
// is deliberately the old implementation, string keys and per-tuple
// copies included: it cannot share a bug with the fingerprint path. The
// same flag makes the join planner check every plan its memo returns
// against a plan built from scratch (verifyPlan).

// refRelation is the seed's Relation storage: rows as individual []int32
// copies plus a byte-string-keyed membership map.
type refRelation struct {
	mu     sync.Mutex
	arity  int
	tuples []Tuple
	set    map[string]struct{}
}

// refKey is the seed's tupleKey: the tuple's little-endian bytes as a
// string.
func refKey(t Tuple) string {
	b := make([]byte, 0, len(t)*4)
	for _, v := range t {
		b = append(b, byte(v), byte(v>>8), byte(v>>16), byte(v>>24))
	}
	return string(b)
}

func newRefRelation(arity int) *refRelation {
	return &refRelation{arity: arity, set: make(map[string]struct{})}
}

func (rr *refRelation) clone() *refRelation {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	c := newRefRelation(rr.arity)
	c.tuples = append([]Tuple(nil), rr.tuples...)
	for k := range rr.set {
		c.set[k] = struct{}{}
	}
	return c
}

// verifyInsert replays the insert on the oracle and checks that the
// columnar path agreed on newness, assigned the same row id, and stored
// the same values at it.
func (rr *refRelation) verifyInsert(r *Relation, t Tuple, isNew bool) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	k := refKey(t)
	_, dup := rr.set[k]
	if isNew == dup {
		panic(fmt.Sprintf("refcheck: Insert(%v) newness=%v, reference says %v", t, isNew, !dup))
	}
	if !dup {
		cp := make(Tuple, len(t))
		copy(cp, t)
		rr.set[k] = struct{}{}
		rr.tuples = append(rr.tuples, cp)
	}
	if r.Len() != len(rr.tuples) {
		panic(fmt.Sprintf("refcheck: after Insert(%v) arena has %d rows, reference %d", t, r.Len(), len(rr.tuples)))
	}
	if isNew {
		row := r.Tuple(r.Len() - 1)
		want := rr.tuples[len(rr.tuples)-1]
		if !tupleEq(row, want) {
			panic(fmt.Sprintf("refcheck: Insert(%v) stored arena row %v, reference row %v", t, row, want))
		}
	}
}

func (rr *refRelation) verifyContains(t Tuple, got bool) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	if _, want := rr.set[refKey(t)]; got != want {
		panic(fmt.Sprintf("refcheck: Contains(%v)=%v, reference says %v", t, got, want))
	}
}

// verifyMatch brute-force scans the oracle's rows for the probe's
// projection and compares the resulting row-id list with the cursor's walk
// (row ids are shared between the two representations because insertion
// order is identical). The walk must yield exactly the matching rows, in
// insertion order: a bucket chain that skips, repeats, reorders or strays
// into another bucket fails here.
func (rr *refRelation) verifyMatch(cols []int, vals []int32, got Rows) {
	rr.mu.Lock()
	defer rr.mu.Unlock()
	var want []int32
	for i, t := range rr.tuples {
		ok := true
		for j, c := range cols {
			if t[c] != vals[j] {
				ok = false
				break
			}
		}
		if ok {
			want = append(want, int32(i))
		}
	}
	var g []int32
	for row, ok := got.Next(); ok && len(g) <= len(rr.tuples); row, ok = got.Next() {
		g = append(g, row)
	}
	if len(g) != len(want) {
		panic(fmt.Sprintf("refcheck: Match(%v,%v) returned %d rows %v, reference %d rows %v", cols, vals, len(g), g, len(want), want))
	}
	for i := range g {
		if g[i] != want[i] {
			panic(fmt.Sprintf("refcheck: Match(%v,%v) returned rows %v, reference %v", cols, vals, g, want))
		}
	}
}

// tupleEq reports elementwise equality.
func tupleEq(a, b Tuple) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// verifyPlan is the oracle for the planner's memo: it replans a version
// whose order the memo already held from scratch — the greedy on freshly
// allocated buffers, the bound columns replayed anew — and panics unless
// the memoized plan agrees on the order and on every step's bound
// columns. A memo keyed by less than what decides the plan, or greedy
// scratch carried over from the previous version, fails here.
func (ev *evaluator) verifyPlan(plan *rulePlan, deltaOcc int, vp *versionPlan) {
	order := ev.greedyOrder(plan, deltaOcc, nil, make([]bool, len(plan.body)), make([]bool, plan.slots))
	fresh := newVersionPlan(plan, order, make([]bool, plan.slots))
	same := slices.Equal(vp.order, fresh.order) && len(vp.boundCols) == len(fresh.boundCols)
	for k := 0; same && k < len(vp.boundCols); k++ {
		same = slices.Equal(vp.boundCols[k], fresh.boundCols[k])
	}
	if !same {
		panic(fmt.Sprintf("refcheck: rule %d version %d: memoized plan order %v bound %v, fresh plan order %v bound %v",
			plan.idx, deltaOcc, vp.order, vp.boundCols, fresh.order, fresh.boundCols))
	}
}
