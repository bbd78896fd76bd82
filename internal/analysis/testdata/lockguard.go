// Fixture for the lockguard analyzer.
package fixture

import "sync"

type store struct {
	mu sync.Mutex
	// guarded by mu
	m map[string]int

	plain int // unannotated: free access
}

func (s *store) get(k string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.m[k]
}

func (s *store) put(k string, v int) {
	s.mu.Lock()
	s.m[k] = v
	s.mu.Unlock()
}

func (s *store) racyGet(k string) int {
	return s.m[k] // want "s.m is accessed without s.mu.Lock"
}

func (s *store) racyLen() int {
	n := len(s.m) // want "s.m is accessed without s.mu.Lock"
	return n + s.plain
}

// lockAfter takes the lock only after touching the field: the
// textual-order approximation must still catch it.
func (s *store) lockAfter(k string) int {
	v := s.m[k] // want "s.m is accessed without s.mu.Lock"
	s.mu.Lock()
	defer s.mu.Unlock()
	return v
}

// newStore writes a guarded field through the value it built; the
// comment argues publication, but no comment is an exception.
func newStore() *store {
	s := &store{}
	//lint:ignore lockguard s is not yet shared, constructor runs single-threaded
	s.m = map[string]int{} // want "s.m is accessed without s.mu.Lock"
	return s
}

// newStoreLiteral builds the value in one composite literal: no
// guarded field is touched through a shared value, so it is clean.
func newStoreLiteral() *store {
	return &store{m: map[string]int{}}
}

// rwStore embeds the mutex: promoted Lock/RLock calls count.
type rwStore struct {
	sync.RWMutex
	// guarded by RWMutex
	vals []float64
}

func (r *rwStore) read(i int) float64 {
	r.RLock()
	defer r.RUnlock()
	return r.vals[i]
}

func (r *rwStore) racyRead(i int) float64 {
	return r.vals[i] // want "r.vals is accessed without r.Lock"
}

// sharded mirrors the explore result cache shape: the lock and the
// access share an indexed base expression.
type shard struct {
	mu sync.Mutex
	// guarded by mu
	n int
}

type sharded struct {
	shards [4]shard
}

func (s *sharded) total() int {
	t := 0
	for i := range s.shards {
		s.shards[i].mu.Lock()
		t += s.shards[i].n
		s.shards[i].mu.Unlock()
	}
	return t
}

func (s *sharded) racyTotal() int {
	t := 0
	for i := range s.shards {
		t += s.shards[i].n // want "s.shards[i].n is accessed without s.shards[i].mu.Lock"
	}
	return t
}

// badAnnotation names a mutex that does not exist.
type badAnnotation struct {
	// guarded by mux
	v int // want "guarded by mux: no such sibling field"
}
