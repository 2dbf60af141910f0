package blockstore

import (
	"sync"

	"wanshuffle/internal/rdd"
)

// memEntry is one stored output. Exactly one of flat or shards is
// non-nil; bytes is the estimated resident size either way, and sample is
// the barrier key sample taken at Put.
type memEntry struct {
	attempt int
	flat    []rdd.Pair
	shards  [][]rdd.Pair
	sample  []string
	bytes   int64
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
	e := &memEntry{attempt: out.Attempt, flat: out.Records, shards: out.Shards, sample: out.sample(), bytes: out.bytes()}
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

// Sample implements Store.
func (s *MemStore) Sample(key Key) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.outputs[key]
	if !ok {
		return nil, ErrNotFound
	}
	return e.sample, nil
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
