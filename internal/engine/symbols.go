// Package engine is the bottom-up evaluation substrate: interned constants,
// indexed tuple relations, and semi-naive fixpoint evaluation of
// Datalog programs, including the runtime boolean-cut optimization of
// Section 3.1 of the paper (a rule defining a boolean predicate is retired
// from the fixpoint computation once the predicate becomes true).
package engine

import "sync"

// AnonID is the interned id of the reserved constant "_" used to fill
// anonymous head arguments produced by the connected-component rewrite
// (the argument position is existential, so any witness value is
// admissible; it is dropped entirely once projections are pushed).
const AnonID int32 = 0

// Symbols interns constant names to dense int32 ids. Id 0 is reserved for
// the anonymous constant "_". The interner is safe for concurrent use. The
// server needs it: concurrent requests clone the interner of one pinned
// store version, and Clone writes the shared mark. Library callers may
// also share one Database across goroutines. Which caller wins a
// concurrent Intern race only affects the private numeric ids, never any
// observable output — every comparison and answer decodes ids back to
// names.
type Symbols struct {
	mu    sync.RWMutex
	names []string
	ids   map[string]int32
	// shared marks names/ids as referenced by a Clone sibling; the next
	// Intern that would mutate them copies first. A shared map is never
	// written, so clones may read it concurrently under their own locks.
	shared bool
}

// NewSymbols returns a fresh interner with "_" pre-interned as id 0.
func NewSymbols() *Symbols {
	s := &Symbols{ids: make(map[string]int32)}
	s.Intern("_")
	return s
}

// Intern returns the id for name, assigning a new one if needed.
func (s *Symbols) Intern(name string) int32 {
	s.mu.RLock()
	id, ok := s.ids[name]
	s.mu.RUnlock()
	if ok {
		return id
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if id, ok := s.ids[name]; ok {
		return id
	}
	if s.shared {
		ids := make(map[string]int32, len(s.ids)+1)
		for k, v := range s.ids {
			ids[k] = v
		}
		s.ids = ids
		s.names = append(make([]string, 0, len(s.names)+8), s.names...)
		s.shared = false
	}
	id = int32(len(s.names))
	s.names = append(s.names, name)
	s.ids[name] = id
	return id
}

// Lookup returns the id for name without interning.
func (s *Symbols) Lookup(name string) (int32, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	id, ok := s.ids[name]
	return id, ok
}

// Name returns the constant name for id.
func (s *Symbols) Name(id int32) string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.names[id]
}

// Names returns the interned names, indexed by id, under one read lock.
// The caller must not mutate the slice. It stays valid while the
// interner grows: Intern only appends past its end or copies first.
func (s *Symbols) Names() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return s.names[:len(s.names):len(s.names)]
}

// Len returns the number of interned constants.
func (s *Symbols) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return len(s.names)
}

// Clone returns an independent copy of the interner, copy-on-write: both
// sides share names/ids until one interns a new constant, which copies
// its view first. Clone is O(1) instead of O(#constants).
func (s *Symbols) Clone() *Symbols {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.shared = true
	return &Symbols{names: s.names, ids: s.ids, shared: true}
}
