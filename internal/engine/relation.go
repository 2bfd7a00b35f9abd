package engine

import (
	"sort"
	"sync"
	"sync/atomic"
)

// Tuple is a row of interned constant ids.
type Tuple []int32

// ---------------------------------------------------------------------------
// Tuple fingerprints
//
// Set membership and index probes key on 64-bit fingerprints instead of the
// seed's string-encoded byte copies: hashing a tuple is a handful of integer
// multiplies with zero allocations, and equal-fingerprint collisions are
// resolved by comparing the candidate row in the arena (the fingerprint
// selects, the arena verifies), so distinct tuples that happen to collide
// are still kept exactly apart.

// fpSeed is the fold's initial state (the FNV-64 offset basis, an arbitrary
// non-zero constant).
const fpSeed uint64 = 0xcbf29ce484222325

// fpMask narrows every fingerprint before use. It is ^0 in production; the
// adversarial collision tests shrink it (down to 0: every tuple collides)
// to prove that membership, indexes, and DRed retraction survive arbitrary
// fingerprint collisions. Only tests may write it, and only while no
// evaluation is running — relations hash consistently for their lifetime.
var fpMask uint64 = ^uint64(0)

// fpMix folds one column value into the running fingerprint. The odd
// multiplier and shift diffuse every input bit across the word; position
// sensitivity comes from the fold itself (the state is multiplied between
// columns, so swapped values hash differently).
func fpMix(h uint64, v int32) uint64 {
	h ^= uint64(uint32(v))
	h *= 0x9E3779B97F4A7C15
	h ^= h >> 29
	return h
}

// fingerprint hashes a whole tuple (or a probe's projected values, which
// must fold in the same column order as projFingerprint).
func fingerprint(t Tuple) uint64 {
	h := fpSeed
	for _, v := range t {
		h = fpMix(h, v)
	}
	return h & fpMask
}

// projFingerprint hashes the projection of t onto cols (in cols order).
func projFingerprint(t Tuple, cols []int) uint64 {
	h := fpSeed
	for _, c := range cols {
		h = fpMix(h, t[c])
	}
	return h & fpMask
}

// ---------------------------------------------------------------------------
// Relation

// refCheckEnabled (tests only) makes every subsequently created Relation
// mirror its operations into a refRelation — the seed's map-of-strings
// storage, kept as a differential oracle (see refcheck.go) — and assert
// agreement on every insert, membership test, and index probe. Written only
// between evaluations on the test goroutine.
var refCheckEnabled bool

// Relation is a set of tuples of fixed arity with hash indexes built on
// demand per bound-column signature. Insertion order is preserved, which
// keeps evaluation deterministic.
//
// Storage is columnar: all rows live in one flat arity-strided []int32
// arena (row i is data[i*arity:(i+1)*arity]), membership is an
// open-addressing table of (fingerprint, row id) slots probed linearly and
// verified against the arena, and an index chains the rows of each
// distinct projection through a per-row next array. Insert, Contains, and
// an indexed Match therefore allocate nothing per tuple — the arena and
// the tables grow amortized.
//
// Clone is copy-on-write: both sides share the arena, the membership table
// and the index set until one of them inserts, which first snapshots
// private copies of the arena and table (two memcpys, no rehashing) and
// detaches to a private, empty index set. The shared flag is atomic only
// because concurrent readers may Clone the same frozen relation; mutation
// remains single-goroutine, at evaluation merge barriers.
//
// Concurrent readers of one frozen relation (concurrent requests pinning
// one store version, or library callers probing a Result) may all reach
// the same index set through their clones. A probe finds a published index
// with atomic loads alone; only a lazy build takes the set's mutex. A shared
// set is only ever built, never maintained: its siblings hold the same
// rows, and the first insert on any of them detaches it first. Insert
// maintains the private set's indexes in place, without a lock.
//
// A semi-naive delta is append-only (newDelta): every row it receives was
// just found new in a superset that keeps a membership table of its own,
// so it is written with appendNew and keeps only the arena and its
// indexes. Asking such a relation about membership is an engine bug, so
// Contains and Insert panic on it.
type Relation struct {
	arity int
	data  []int32 // arity-strided arena; row i = data[i*arity:(i+1)*arity]
	n     int     // rows (tracked apart from len(data) for arity 0)
	table []slot  // open-addressing membership set; nil until first insert
	// appendOnly marks a delta: no membership table, writes via appendNew.
	appendOnly bool
	// shared marks the arena, table and index set as referenced by a Clone
	// sibling: the next insert copies before writing.
	shared atomic.Bool
	ixs    atomic.Pointer[indexSet] // nil until the first build or Clone
	ref    *refRelation             // differential oracle; nil unless refCheckEnabled
}

// slot is one membership-table entry: the tuple's fingerprint and its row
// id in the arena. row < 0 marks an empty slot.
type slot struct {
	fp  uint64
	row int32
}

// indexSet holds a relation's indexes, one per bound-column signature. The
// published list is replaced, never edited, by a build, so probes read it
// without the mutex.
type indexSet struct {
	mu  sync.Mutex // serializes builds
	all atomic.Pointer[[]*index]
}

// lookup returns the published index with the given column mask, or nil.
func (s *indexSet) lookup(mask uint64) *index {
	if p := s.all.Load(); p != nil {
		for _, ix := range *p {
			if ix.mask == mask {
				return ix
			}
		}
	}
	return nil
}

// index maps projection fingerprints to buckets of rows. Each bucket holds
// every row with one distinct projection value, as a chain from its head
// through next to its tail, in insertion order; distinct projections whose
// fingerprints collide occupy separate slots (linear probing walks past
// the mismatch, verified against the arena via the bucket's head row).
type index struct {
	mask  uint64 // colMask(cols)
	cols  []int  // ascending
	slots []idxSlot
	keys  int     // occupied slots
	next  []int32 // per row: the next row of its bucket, or -1
}

// idxSlot is one bucket: its projection fingerprint and the first and last
// rows of its chain. head < 0 marks an empty slot.
type idxSlot struct {
	fp         uint64
	head, tail int32
}

// NewRelation returns an empty relation of the given arity.
func NewRelation(arity int) *Relation {
	r := &Relation{arity: arity}
	if refCheckEnabled {
		r.ref = newRefRelation(arity)
	}
	return r
}

// newDelta returns an empty append-only relation of the given arity.
func newDelta(arity int) *Relation {
	r := NewRelation(arity)
	r.appendOnly = true
	return r
}

// Arity returns the relation's arity.
func (r *Relation) Arity() int { return r.arity }

// Len returns the number of tuples.
func (r *Relation) Len() int { return r.n }

// Tuple returns the i-th tuple as a view into the arena. The caller must
// not mutate it.
func (r *Relation) Tuple(i int) Tuple {
	off := i * r.arity
	return r.data[off : off+r.arity : off+r.arity]
}

// Tuples returns the stored tuples in insertion order, as views into the
// arena. The caller must not mutate them. Hot paths iterate with
// Len/Tuple instead: this materializes a fresh slice of headers.
func (r *Relation) Tuples() []Tuple {
	out := make([]Tuple, r.n)
	for i := range out {
		out[i] = r.Tuple(i)
	}
	return out
}

// rowEq reports whether arena row row equals t.
func (r *Relation) rowEq(row int32, t Tuple) bool {
	off := int(row) * r.arity
	for i, v := range t {
		if r.data[off+i] != v {
			return false
		}
	}
	return true
}

// findRow returns the row id of t (with fingerprint fp) or -1. Collisions
// — equal fingerprints for distinct tuples — fail the rowEq verification
// and the probe walks on.
func (r *Relation) findRow(fp uint64, t Tuple) int32 {
	if r.table == nil {
		return -1
	}
	mask := uint64(len(r.table) - 1)
	for i := fp & mask; ; i = (i + 1) & mask {
		s := r.table[i]
		if s.row < 0 {
			return -1
		}
		if s.fp == fp && r.rowEq(s.row, t) {
			return s.row
		}
	}
}

// place writes (fp, row) into the first free slot of the probe chain.
func place(table []slot, fp uint64, row int32) {
	mask := uint64(len(table) - 1)
	i := fp & mask
	for table[i].row >= 0 {
		i = (i + 1) & mask
	}
	table[i] = slot{fp: fp, row: row}
}

func newSlotTable(size int) []slot {
	t := make([]slot, size)
	for i := range t {
		t[i].row = -1
	}
	return t
}

// grow rebuilds the membership table at the given power-of-two size from
// the stored fingerprints (no tuple is rehashed).
func (r *Relation) grow(size int) {
	nt := newSlotTable(size)
	for _, s := range r.table {
		if s.row >= 0 {
			place(nt, s.fp, s.row)
		}
	}
	r.table = nt
}

// materialize snapshots private copies of the shared arena and membership
// table — the copy half of copy-on-write, run by whichever Clone sibling
// inserts first. Two memcpys; nothing is rehashed because row ids and
// fingerprints are position-independent. The shared index set stays with
// the siblings, which still hold the rows it indexes; this relation starts
// a private one on its next probe.
func (r *Relation) materialize() {
	nd := make([]int32, len(r.data), len(r.data)+max(64, len(r.data)/2))
	copy(nd, r.data)
	r.data = nd
	if r.table != nil {
		nt := make([]slot, len(r.table))
		copy(nt, r.table)
		r.table = nt
	}
	r.ixs.Store(nil)
	r.shared.Store(false)
}

// Contains reports membership.
func (r *Relation) Contains(t Tuple) bool {
	ok := r.contains(t)
	if r.ref != nil {
		r.ref.verifyContains(t, ok)
	}
	return ok
}

func (r *Relation) contains(t Tuple) bool {
	if r.appendOnly {
		panic("engine: Contains on an append-only delta")
	}
	if r.arity == 0 {
		return r.n == 1
	}
	return r.findRow(fingerprint(t), t) >= 0
}

// Insert adds t (copied into the arena) and reports whether it was new.
func (r *Relation) Insert(t Tuple) bool {
	isNew := r.insert(t)
	if r.ref != nil {
		r.ref.verifyInsert(r, t, isNew)
	}
	return isNew
}

func (r *Relation) insert(t Tuple) bool {
	if r.appendOnly {
		panic("engine: Insert on an append-only delta")
	}
	if r.arity == 0 {
		if r.n == 1 {
			return false
		}
		if r.shared.Load() {
			r.materialize()
		}
		r.n = 1
		return true
	}
	fp := fingerprint(t)
	if r.findRow(fp, t) >= 0 {
		return false
	}
	if r.shared.Load() {
		r.materialize()
	}
	// Grow at ~3/4 load, before placing, so probe chains stay short.
	switch {
	case r.table == nil:
		r.table = newSlotTable(16)
	case (r.n+1)*4 > len(r.table)*3:
		r.grow(len(r.table) * 2)
	}
	place(r.table, fp, int32(r.n))
	r.push(t)
	return true
}

// appendNew adds t (copied into the arena) to an append-only delta. The
// caller has just found t new in a superset — the full relation, or
// Retract's dead set — so no membership table is consulted or kept; under
// refCheckEnabled the oracle still verifies that t is new.
func (r *Relation) appendNew(t Tuple) {
	if !r.appendOnly {
		panic("engine: appendNew on a relation with a membership table")
	}
	if r.shared.Load() {
		r.materialize()
	}
	r.push(t)
	if r.ref != nil {
		r.ref.verifyInsert(r, t, true)
	}
}

// reset empties an append-only delta for reuse: its arena keeps its
// capacity, its indexes are dropped (they index the old rows), and the
// next appendNew writes row 0.
func (r *Relation) reset() {
	r.data = r.data[:0]
	r.n = 0
	r.ixs.Store(nil)
	if r.ref != nil {
		r.ref = newRefRelation(r.arity)
	}
}

// push appends t as the next arena row and keeps every built index
// current.
func (r *Relation) push(t Tuple) {
	row := int32(r.n)
	r.data = append(r.data, t...)
	r.n++
	if s := r.ixs.Load(); s != nil {
		if p := s.all.Load(); p != nil {
			for _, ix := range *p {
				ix.add(r, row)
			}
		}
	}
}

// colMask returns the bitmask signature of a bound-column set.
func colMask(cols []int) uint64 {
	var m uint64
	for _, c := range cols {
		m |= 1 << uint(c)
	}
	return m
}

// add appends one arena row (the next row id, as rows are added in
// order) to the tail of its projection's chain, opening a bucket (and
// growing the slot table) as needed.
func (ix *index) add(r *Relation, row int32) {
	t := r.Tuple(int(row))
	fp := projFingerprint(t, ix.cols)
	if (ix.keys+1)*4 > len(ix.slots)*3 {
		ix.growSlots()
	}
	ix.next = append(ix.next, -1)
	mask := uint64(len(ix.slots) - 1)
	for i := fp & mask; ; i = (i + 1) & mask {
		s := &ix.slots[i]
		if s.head < 0 {
			*s = idxSlot{fp: fp, head: row, tail: row}
			ix.keys++
			return
		}
		if s.fp == fp && projEq(r, s.head, t, ix.cols) {
			ix.next[s.tail] = row
			s.tail = row
			return
		}
	}
}

// projEq reports whether arena row rep's projection onto cols equals the
// projection of t (a full-width tuple).
func projEq(r *Relation, rep int32, t Tuple, cols []int) bool {
	off := int(rep) * r.arity
	for _, c := range cols {
		if r.data[off+c] != t[c] {
			return false
		}
	}
	return true
}

// growSlots rebuilds the slot table at double size from the stored
// fingerprints (no projection is rehashed).
func (ix *index) growSlots() {
	size := 16
	if len(ix.slots) > 0 {
		size = len(ix.slots) * 2
	}
	ns := make([]idxSlot, size)
	for i := range ns {
		ns[i].head = -1
	}
	mask := uint64(size - 1)
	for _, s := range ix.slots {
		if s.head < 0 {
			continue
		}
		i := s.fp & mask
		for ns[i].head >= 0 {
			i = (i + 1) & mask
		}
		ns[i] = s
	}
	ix.slots = ns
}

// probe returns the head row of the bucket whose projection equals svals
// (parallel to ix.cols), or -1.
func (ix *index) probe(r *Relation, svals Tuple) int32 {
	if len(ix.slots) == 0 {
		return -1
	}
	fp := fingerprint(svals)
	mask := uint64(len(ix.slots) - 1)
	for i := fp & mask; ; i = (i + 1) & mask {
		s := ix.slots[i]
		if s.head < 0 {
			return -1
		}
		if s.fp == fp {
			off := int(s.head) * r.arity
			eq := true
			for j, c := range ix.cols {
				if r.data[off+c] != svals[j] {
					eq = false
					break
				}
			}
			if eq {
				return s.head
			}
		}
	}
}

// Rows is a cursor over the row ids one Match selected, in insertion
// order. It is a value: copies iterate independently. It reads the
// relation's index, so it must not be used across an Insert.
type Rows struct {
	next []int32 // the index's per-row chain; nil for an all-rows scan
	row  int32   // the next row id to yield; -1 once exhausted
	end  int32   // one past the last row id
}

// Next returns the next row id, or false once the cursor is exhausted.
func (it *Rows) Next() (int32, bool) {
	row := it.row
	if row < 0 || row >= it.end {
		return 0, false
	}
	if it.next != nil {
		it.row = it.next[row]
	} else {
		it.row++
	}
	return row, true
}

// scan returns a cursor over every row id.
func (r *Relation) scan() Rows { return Rows{end: int32(r.n)} }

// Match returns a cursor over the row ids of tuples whose projection onto
// cols equals vals (parallel slices; cols need not be sorted), in
// insertion order. With empty cols it yields all row ids. An indexed Match
// allocates nothing once its index exists.
func (r *Relation) Match(cols []int, vals []int32) Rows {
	got := r.match(cols, vals)
	if r.ref != nil {
		r.ref.verifyMatch(cols, vals, got)
	}
	return got
}

func (r *Relation) match(cols []int, vals []int32) Rows {
	if len(cols) == 0 {
		return r.scan()
	}
	// Fast path: the engine's join always probes with ascending columns.
	ascending := true
	for i := 1; i < len(cols); i++ {
		if cols[i] <= cols[i-1] {
			ascending = false
			break
		}
	}
	scols, svals := cols, Tuple(vals)
	if !ascending {
		type cv struct {
			c int
			v int32
		}
		cvs := make([]cv, len(cols))
		for i := range cols {
			cvs[i] = cv{cols[i], vals[i]}
		}
		sort.Slice(cvs, func(i, j int) bool { return cvs[i].c < cvs[j].c })
		sc := make([]int, len(cvs))
		sv := make(Tuple, len(cvs))
		for i, x := range cvs {
			sc[i] = x.c
			sv[i] = x.v
		}
		scols, svals = sc, sv
	}
	ix := r.indexFor(scols)
	return Rows{next: ix.next, row: ix.probe(r, svals), end: int32(r.n)}
}

// indexSet returns the relation's index set, installing an empty one if it
// has none. Concurrent readers may race here; the compare-and-swap lets
// exactly one set win.
func (r *Relation) indexSet() *indexSet {
	if s := r.ixs.Load(); s != nil {
		return s
	}
	r.ixs.CompareAndSwap(nil, new(indexSet))
	return r.ixs.Load()
}

// testHookIndexBuild, when set by a test, is called once per index build
// with the set the index is published in and its column mask.
var testHookIndexBuild func(s *indexSet, mask uint64)

// indexFor returns (building if absent) the index for the given ascending
// bound-column set. The common case is two atomic loads (the set, then
// its published list) and a short scan of the list; a miss builds under
// the set's mutex, double-checked because another reader may have built
// the same index meanwhile. Building reads the arena, which no reader
// mutates, and a shared set's siblings all hold the same rows.
func (r *Relation) indexFor(scols []int) *index {
	mask := colMask(scols)
	s := r.indexSet()
	if ix := s.lookup(mask); ix != nil {
		return ix
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if ix := s.lookup(mask); ix != nil {
		return ix
	}
	if testHookIndexBuild != nil {
		testHookIndexBuild(s, mask)
	}
	ix := &index{mask: mask, cols: append([]int(nil), scols...), next: make([]int32, 0, r.n)}
	for i := 0; i < r.n; i++ {
		ix.add(r, int32(i))
	}
	var all []*index
	if p := s.all.Load(); p != nil {
		all = append(all, *p...)
	}
	all = append(all, ix)
	s.all.Store(&all)
	return ix
}

// Clone returns a copy-on-write snapshot: O(1), sharing the arena, the
// membership table and the index set with the receiver until either side
// inserts. An index either side builds meanwhile serves both; the side
// that inserts detaches to a private, empty set. Cloning a frozen relation
// is safe concurrently with readers; mutation stays single-goroutine.
func (r *Relation) Clone() *Relation {
	r.shared.Store(true)
	c := &Relation{arity: r.arity, data: r.data, n: r.n, table: r.table, appendOnly: r.appendOnly}
	c.ixs.Store(r.indexSet())
	c.shared.Store(true)
	if r.ref != nil {
		c.ref = r.ref.clone()
	}
	return c
}

func max(a, b int) int {
	if a > b {
		return a
	}
	return b
}
