package gen

import "fmt"

var tcRules = MustRules(`
tc(X,Y) :- e(X,Z), tc(Z,Y).
tc(X,Y) :- e(X,Y).
`)

// chain returns the facts e(n0,n1) … e(n[k-1],nk) in seeded order over
// seeded node names, and the names in chain order.
func chain(r *rng, edges int) ([]Atom, []string) {
	node := names(r, "n", edges+1)
	facts := make([]Atom, edges)
	for i := range facts {
		facts[i] = Atom{Pred: "e", Args: []string{node[i], node[i+1]}}
	}
	shuffleFacts(r, facts)
	return facts, node
}

// pointDeep: right-linear closure over a chain, asked from a pool of 16
// start nodes. The server derives the whole closure whatever the
// binding, so every op costs the same 401 passes; the pool is spread
// evenly along the chain so that the mean answer size is too.
func pointDeep(seed uint64, scale float64) *Workload {
	r := newRNG(seed, "point_deep")
	edges := scaled(400, scale, 16)
	facts, node := chain(r, edges)
	p := &Program{Rules: tcRules, Facts: facts}
	db := Evaluate(p)

	const pool = 16
	stride := edges / pool
	goals := make([]Op, pool)
	for j := range goals {
		k := node[j*stride+r.intn(stride)]
		goals[j] = Op{Requests: []Request{query(Atom{Pred: "tc", Args: []string{k, "X"}}, db)}}
	}
	return &Workload{
		Program: p,
		Setup:   goals,
		// Each block of 16 ops asks every pool member once, in a seeded
		// order, so any window of the run sees the same mix.
		Op: func(i int) Op {
			order := newRNG(seed, fmt.Sprintf("point_deep/block/%d", i/pool)).perm(pool)
			return goals[order[i%pool]]
		},
		OpsPerSecond: 26,
	}
}

// closureWide: the full closure of a random digraph. How much work a
// random digraph's closure is swings by tens of percent from seed to
// seed (the giant component's size), which would drown the run-to-run
// noise the benchmark exists to see through; so the generator draws
// graphs from the seed until one has the target closure size, derivation
// count and depth. Every seed then gives a different graph doing the
// same amount of work.
func closureWide(seed uint64, scale float64) *Workload {
	nodes := scaled(300, scale, 12)
	var p *Program
	for try := 0; ; try++ {
		r := newRNG(seed, fmt.Sprintf("closure_wide/%d", try))
		edges := randomDigraph(r, nodes, nodes*3/2)
		if scale < 1 || closureOnTarget(closureShape(nodes, edges)) {
			node := names(r, "n", nodes)
			p = &Program{Rules: tcRules}
			for _, e := range edges {
				p.Facts = append(p.Facts, Atom{Pred: "e", Args: []string{node[e[0]], node[e[1]]}})
			}
			break
		}
	}
	goal := Op{Requests: []Request{query(MustAtom("tc(X,Y)"), Evaluate(p))}}
	return &Workload{
		Program:      p,
		Setup:        []Op{goal},
		Op:           func(int) Op { return goal },
		OpsPerSecond: 20,
	}
}

// What a full-scale closure_wide graph must cost: 30 000 answer rows to
// within 1 %, 45 500 derivations (one per edge and per edge-closure
// pair, duplicates included) to within 2 %, reached in 22 to 28 rounds.
// About one random 300-node, 450-edge digraph in sixty qualifies.
func closureOnTarget(rows, derivations, depth int) bool {
	return rows >= 29700 && rows <= 30300 &&
		derivations >= 44600 && derivations <= 46400 &&
		depth >= 22 && depth <= 28
}

func randomDigraph(r *rng, nodes, edges int) [][2]int {
	seen := map[[2]int]bool{}
	out := make([][2]int, 0, edges)
	for len(out) < edges {
		e := [2]int{r.intn(nodes), r.intn(nodes)}
		if e[0] == e[1] || seen[e] {
			continue
		}
		seen[e] = true
		out = append(out, e)
	}
	return out
}

// closureShape measures a digraph by breadth-first search from every
// node: the pairs (x,y) joined by a path, the derivations the right-
// linear closure rules make to find them, and the longest shortest
// path. It is only the generator's acceptance test; expected answers
// still come from the oracle.
func closureShape(nodes int, edges [][2]int) (rows, derivations, depth int) {
	succ := make([][]int, nodes)
	for _, e := range edges {
		succ[e[0]] = append(succ[e[0]], e[1])
	}
	reach := make([]int, nodes)
	dist := make([]int, nodes)
	for start := range succ {
		for i := range dist {
			dist[i] = 0
		}
		frontier := []int{start}
		for d := 1; len(frontier) > 0; d++ {
			var next []int
			for _, x := range frontier {
				for _, y := range succ[x] {
					if dist[y] == 0 {
						dist[y] = d
						reach[start]++
						next = append(next, y)
						depth = max(depth, d)
					}
				}
			}
			frontier = next
		}
		rows += reach[start]
	}
	for _, e := range edges {
		derivations += 1 + reach[e[1]]
	}
	return rows, derivations, depth
}

var liveRules = MustRules(`
live(R) :- edge(R), reach(R,S), heartbeat(C).
reach(R,S) :- link(R,M), reach(M,S).
reach(R,S) :- uplink(R,S).
`)

// existsCut: which edge routers can forward to some core? A forest of
// 60-hop access chains whose tails uplink to several cores, a random
// mesh beside it, and a fifth of the chains dead-ended. As written,
// reach(R,S) carries every (router, core) pair; the query only needs
// reach to be non-empty per router, and heartbeat(C) is disconnected
// from R altogether.
func existsCut(seed uint64, scale float64) *Workload {
	r := newRNG(seed, "exists_cut")
	const hops = 60
	chains := scaled(200, scale, 5)
	mesh := scaled(400, scale, 10)
	core := names(r, "core", 12)
	router := names(r, "r", chains*hops+mesh)

	var facts []Atom
	add := func(pred string, args ...string) { facts = append(facts, Atom{Pred: pred, Args: args}) }
	meshNode := router[chains*hops:]
	var liveNodes, deadNodes []string
	for c := 0; c < chains; c++ {
		nodes := router[c*hops : (c+1)*hops]
		for i := 0; i+1 < hops; i++ {
			add("link", nodes[i], nodes[i+1])
		}
		if c%5 == 4 { // dead end: no uplink anywhere down this chain
			deadNodes = append(deadNodes, nodes...)
			continue
		}
		liveNodes = append(liveNodes, nodes...)
		for _, k := range r.perm(len(core))[:3] {
			add("uplink", nodes[hops-1], core[k])
		}
		if c%4 == 0 { // a quarter of the live chains also bridge into the mesh
			add("link", nodes[hops-1], meshNode[r.intn(mesh)])
		}
	}
	for i := 0; i < 2*mesh; i++ {
		add("link", meshNode[r.intn(mesh)], meshNode[r.intn(mesh)])
	}
	for i := 0; i < mesh/4; i++ {
		m := meshNode[r.intn(mesh)]
		for _, k := range r.perm(len(core))[:2] {
			add("uplink", m, core[k])
		}
	}
	pick := func(from []string, n int) {
		for _, i := range r.perm(len(from))[:min(n, len(from))] {
			add("edge", from[i])
		}
	}
	pick(liveNodes, scaled(800, scale, 8))
	pick(deadNodes, scaled(150, scale, 2))
	pick(meshNode, scaled(50, scale, 2))
	for _, h := range []string{"collector_a", "collector_b", "collector_c"} {
		add("heartbeat", h)
	}
	// Duplicate uplinks are one fact to the program under test; keep the
	// source free of them so that fact counts mean the same everywhere.
	facts = dedupe(facts)
	shuffleFacts(r, facts)

	goal := MustAtom("live(R)")
	p := &Program{Rules: liveRules, Facts: facts, Goal: &goal}
	want := Answers(Evaluate(p), goal)
	op := Op{Requests: []Request{{Path: "/query", Want: want}}} // "" asks the default goal
	return &Workload{
		Program:      p,
		Setup:        []Op{op},
		Op:           func(int) Op { return op },
		OpsPerSecond: 80,
	}
}

func dedupe(facts []Atom) []Atom {
	seen := map[string]bool{}
	out := facts[:0]
	for _, f := range facts {
		if k := f.String(); !seen[k] {
			seen[k] = true
			out = append(out, f)
		}
	}
	return out
}

// mixedRW: one transaction adds an edge from a brand-new node to the
// head of a chain, reads the closure column of the tail (the new node
// must be in it), retracts the edge and reads again (it must be gone).
func mixedRW(seed uint64, scale float64) *Workload {
	r := newRNG(seed, "mixed_rw")
	edges := scaled(200, scale, 8)
	facts, node := chain(r, edges)
	head, tail := node[0], node[edges]
	p := &Program{Rules: tcRules, Facts: facts}
	goal := Atom{Pred: "tc", Args: []string{"X", tail}}
	read := query(goal, Evaluate(p))

	with := func(extra ...string) Request {
		q := read
		q.Want = append([][]string(nil), read.Want...)
		for _, u := range extra {
			q.Want = append(q.Want, []string{u, tail})
		}
		return q
	}
	edge := func(u string) string { return Atom{Pred: "e", Args: []string{u, head}}.String() }
	txn := func(u string) Op {
		return Op{Requests: []Request{
			{Path: "/update", Fact: edge(u)},
			with(u),
			{Path: "/retract", Fact: edge(u)},
			read,
		}}
	}
	tag := seed % 1000
	w := &Workload{
		Program: p,
		WAL:     true,
		// The transaction in set-up pays for the store's first-write
		// materialization, so the measured phase never does.
		Setup:        []Op{{Requests: []Request{read}}, txn(fmt.Sprintf("s%d", tag))},
		Op:           func(i int) Op { return txn(fmt.Sprintf("u%d_%d", tag, i)) },
		OpsPerSecond: 32,
	}
	var kept []string
	for j := 0; j < 8; j++ {
		d := fmt.Sprintf("d%d_%d", tag, j)
		kept = append(kept, d)
		w.Durable = append(w.Durable, Request{Path: "/update", Fact: edge(d)})
	}
	after := with(kept...)
	w.AfterRestart = &after
	return w
}

// The rulebook: seven small programs from the paper and this
// repository's examples under disjoint predicate names, 21 rules. Only
// the part reachable from a goal is compiled for it.
var rulebook = MustRules(`
q1(X) :- a1(X,Y).
a1(X,Y) :- p1(X,Z), a1(Z,Y).
a1(X,Y) :- p1(X,Y).
p2(X,U) :- q21(X,Y), q22(Y,Z), q23(U,V), q24(V), q25(W).
q24(X) :- q26(X).
p9(X,Y) :- t9(X,Y), g93(Y,Z,U).
p9(X,Y) :- s9(X,Z,U), g91(Z,U,Y).
s9(X,Z,U) :- t9(X,W), g92(W,Z,U).
s9(X,Z,U) :- t9(X,V), g93(V,Z,U), g94(U,W).
t9(X,Y) :- b9(X,Y).
query12(X,Y) :- p12(X,Y,Z).
p12(X,Y,Z) :- up12(X,X1), p12(X1,Y1,Z), dn12(Y1,Y), c12(Z).
p12(X,Y,Z) :- b12(X,Y,Z).
buddyless(X) :- person(X), sg(X,Y).
sg(X,Y) :- up(X,U), sg(U,V), dn(V,Y).
sg(X,Y) :- flat(X,Y).
live6(R) :- reach6(R,S), heartbeat6(C).
reach6(R,S) :- link6(R,M), reach6(M,S).
reach6(R,S) :- link6(R,S).
tc7(X,Y) :- e7(X,Z), tc7(Z,Y).
tc7(X,Y) :- e7(X,Y).
`)

// One goal shape per rulebook program; %s is the request's constant.
var coldShapes = []string{
	"q1(%s)",        // Example 1: existential closure, collapses to one unary rule
	"p2(%s,_)",      // Example 2: three disconnected components become booleans
	"p9(%s,_)",      // Example 9: a rule deleted by query-projection subsumption
	"query12(%s,Y)", // Example 12: invariant argument reduced
	"buddyless(%s)", // same generation with an existential partner
	"live6(%s)",     // liveness: projection plus a boolean cut
	"tc7(%s,X)",     // plain closure: nothing to optimize, the floor
}

// compileCold: a small fact set under the rulebook, asked goals whose
// constant has never been asked before. Nearly all constants are absent
// from the facts (the answer is empty and evaluation is tiny); every
// sixteenth op, while they last, uses a constant that is present, so
// that non-empty answers are checked too.
func compileCold(seed uint64, scale float64) *Workload {
	r := newRNG(seed, "compile_cold")
	dom := names(r, "v", scaled(24, scale, 8))
	var facts []Atom
	fill := func(pred string, arity, n int) {
		for i := 0; i < n; i++ {
			args := make([]string, arity)
			for j := range args {
				args[j] = dom[r.intn(len(dom))]
			}
			facts = append(facts, Atom{Pred: pred, Args: args})
		}
	}
	for _, rel := range []struct {
		pred     string
		arity, n int
	}{
		{"p1", 2, 16},
		{"q21", 2, 12}, {"q22", 2, 12}, {"q23", 2, 8}, {"q26", 1, 6}, {"q25", 1, 3},
		{"b9", 2, 14}, {"g91", 3, 14}, {"g92", 3, 14}, {"g93", 3, 14}, {"g94", 2, 10},
		{"up12", 2, 12}, {"dn12", 2, 12}, {"c12", 1, 8}, {"b12", 3, 12},
		{"person", 1, 12}, {"up", 2, 14}, {"dn", 2, 14}, {"flat", 2, 10},
		{"link6", 2, 16}, {"heartbeat6", 1, 2},
		{"e7", 2, 18},
	} {
		fill(rel.pred, rel.arity, scaled(rel.n, scale, 2))
	}
	facts = dedupe(facts)
	shuffleFacts(r, facts)
	p := &Program{Rules: rulebook, Facts: facts}
	db := Evaluate(p)

	ask := func(shape int, constant string) Op {
		goal := MustAtom(fmt.Sprintf(coldShapes[shape], constant))
		return Op{Requests: []Request{query(goal, db)}}
	}
	// present[s] lists the constants for which shape s has an answer.
	present := make([][]string, len(coldShapes))
	for s := range coldShapes {
		for _, c := range dom {
			if len(ask(s, c).Requests[0].Want) > 0 {
				present[s] = append(present[s], c)
			}
		}
	}
	w := &Workload{Program: p, OpsPerSecond: 640}
	for s := range coldShapes {
		c := fmt.Sprintf("warm%d", s)
		if len(present[s]) > 0 {
			c = present[s][0]
		}
		w.Setup = append(w.Setup, ask(s, c))
	}
	base := r.intn(1_000_000)
	nShapes := len(coldShapes)
	w.Op = func(i int) Op {
		order := newRNG(seed, fmt.Sprintf("compile_cold/block/%d", i/nShapes)).perm(nShapes)
		shape := order[i%nShapes]
		if i%16 == 0 {
			j := i / 16
			if s, k := j%nShapes, 1+j/nShapes; k < len(present[s]) {
				return ask(s, present[s][k])
			}
		}
		return ask(shape, fmt.Sprintf("f%d", base+i))
	}
	return w
}
