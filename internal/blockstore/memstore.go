package blockstore

import (
	"sync"

	"wanshuffle/internal/rdd"
)

// memEntry is one stored output. Exactly one of flat or shards is
// non-nil; bytes is the estimated resident size either way.
type memEntry struct {
	attempt int
	flat    []rdd.Pair
	shards  [][]rdd.Pair
	bytes   int64
}

// flatten returns the entry's flat record view.
func (e *memEntry) flatten() []rdd.Pair {
	if e.shards == nil {
		return e.flat
	}
	return concatShards(e.shards)
}

// concatShards joins shards into one flat record list, allocated once;
// nil when every shard is empty.
func concatShards(shards [][]rdd.Pair) []rdd.Pair {
	n := 0
	for _, shard := range shards {
		n += len(shard)
	}
	if n == 0 {
		return nil
	}
	out := make([]rdd.Pair, 0, n)
	for _, shard := range shards {
		out = append(out, shard...)
	}
	return out
}

// MemStore is the fully resident Store: every output stays in memory, the
// historical behaviour of the live worker's output map and MemBackend's
// shard cache.
type MemStore struct {
	mu      sync.Mutex
	acct    *Accountant
	outputs map[Key]*memEntry
}

// NewMemStore returns an empty store accounting into acct (nil for a
// private, unobserved accountant).
func NewMemStore(acct *Accountant) *MemStore {
	if acct == nil {
		acct = NewAccountant(nil)
	}
	return &MemStore{acct: acct, outputs: map[Key]*memEntry{}}
}

// Put implements Store.
func (s *MemStore) Put(key Key, out Output) (stored, dup bool, err error) {
	e := &memEntry{attempt: out.Attempt, flat: out.Records, shards: out.Shards, bytes: out.bytes()}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.outputs[key]
	if old != nil {
		if old.attempt > out.Attempt {
			return false, true, nil // stale retried push; keep the newer output
		}
		s.acct.resident(e.bytes-old.bytes, 0)
		s.outputs[key] = e
		return true, true, nil
	}
	s.acct.resident(e.bytes, 1)
	s.outputs[key] = e
	return true, false, nil
}

// Get implements Store.
func (s *MemStore) Get(key Key) ([]rdd.Pair, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.outputs[key]
	if !ok {
		return nil, ErrNotFound
	}
	return e.flatten(), nil
}

// Shards implements Store.
func (s *MemStore) Shards(key Key, bucket BucketFunc) ([][]rdd.Pair, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.outputs[key]
	if !ok {
		return nil, ErrNotFound
	}
	if e.shards == nil {
		shards, err := bucket(e.flat)
		if err != nil {
			return nil, err
		}
		e.shards = shards
		e.flat = nil
	}
	return e.shards, nil
}

// Len implements Store.
func (s *MemStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.outputs)
}

// DropShuffle implements Store.
func (s *MemStore) DropShuffle(shuffle int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, e := range s.outputs {
		if key.Shuffle == shuffle {
			s.acct.resident(-e.bytes, -1)
			delete(s.outputs, key)
		}
	}
	return nil
}

// Reset implements Store.
func (s *MemStore) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, e := range s.outputs {
		s.acct.resident(-e.bytes, -1)
		delete(s.outputs, key)
	}
	return nil
}

// Close implements Store.
func (s *MemStore) Close() error { return s.Reset() }

// Accountant implements Store.
func (s *MemStore) Accountant() *Accountant { return s.acct }
