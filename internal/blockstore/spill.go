package blockstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"wanshuffle/internal/rdd"
)

// SpillConfig configures a SpillStore.
type SpillConfig struct {
	// MemoryBudget is the resident-byte budget. Whenever resident bytes
	// exceed it, the coldest outputs (least recently stored or read) are
	// written to temp files in the rdd record codec until the store fits
	// again, and reloaded transparently on their next read. Must be
	// positive.
	MemoryBudget int64
	// Dir is where spill files live; each store creates (and removes on
	// Close) its own subdirectory under it. Empty means the OS temp dir.
	Dir string
}

// spillEntry is one stored output, resident or on disk. While resident,
// exactly one of flat/shards is non-nil; while spilled, both are nil and
// path names the file holding its encoding (see encodeSpill). sample, the
// barrier key sample taken at Put, stays resident either way.
type spillEntry struct {
	attempt int
	flat    []rdd.Pair
	shards  [][]rdd.Pair
	sample  []string
	bytes   int64
	lastUse uint64
	spilled bool
	path    string
}

// SpillStore is the budgeted Store: outputs are resident until the memory
// budget is exceeded, then the coldest ones spill to per-store temp files
// and reload transparently when read again. Attempt and bucketing
// semantics are identical to MemStore's; only residency differs.
type SpillStore struct {
	mu      sync.Mutex
	acct    *Accountant
	cfg     SpillConfig
	dir     string
	outputs map[Key]*spillEntry
	tick    uint64
	nfiles  int
}

// NewSpillStore creates a store spilling into its own subdirectory of
// cfg.Dir. acct may be nil for a private, unobserved accountant.
func NewSpillStore(cfg SpillConfig, acct *Accountant) (*SpillStore, error) {
	if cfg.MemoryBudget <= 0 {
		return nil, fmt.Errorf("blockstore: memory budget must be positive, got %d", cfg.MemoryBudget)
	}
	dir, err := os.MkdirTemp(cfg.Dir, "wanshuffle-spill-")
	if err != nil {
		return nil, fmt.Errorf("blockstore: creating spill dir: %w", err)
	}
	if acct == nil {
		acct = NewAccountant(nil)
	}
	return &SpillStore{acct: acct, cfg: cfg, dir: dir, outputs: map[Key]*spillEntry{}}, nil
}

// Dir returns the store's spill directory (removed on Close).
func (s *SpillStore) Dir() string { return s.dir }

// touchLocked marks e as most recently used.
func (s *SpillStore) touchLocked(e *spillEntry) {
	s.tick++
	e.lastUse = s.tick
}

// Put implements Store.
func (s *SpillStore) Put(key Key, out Output) (stored, dup bool, err error) {
	e := &spillEntry{attempt: out.Attempt, flat: out.Records, shards: out.Shards, sample: out.sample(), bytes: out.bytes()}
	s.mu.Lock()
	defer s.mu.Unlock()
	old := s.outputs[key]
	if old != nil {
		if old.attempt > out.Attempt {
			return false, true, nil // stale retried push; keep the newer output
		}
		s.discardLocked(old)
		dup = true
	}
	s.touchLocked(e)
	s.outputs[key] = e
	s.acct.resident(e.bytes, 1)
	return true, dup, s.enforceBudgetLocked(e)
}

// Sample implements Store. It never reloads a spilled output.
func (s *SpillStore) Sample(key Key) ([]string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.outputs[key]
	if !ok {
		return nil, ErrNotFound
	}
	return e.sample, nil
}

// Shards implements Store.
func (s *SpillStore) Shards(key Key, bucket BucketFunc) ([][]rdd.Pair, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	e, ok := s.outputs[key]
	if !ok {
		return nil, ErrNotFound
	}
	if err := s.ensureResidentLocked(e); err != nil {
		return nil, err
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
func (s *SpillStore) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.outputs)
}

// DropShuffle implements Store.
func (s *SpillStore) DropShuffle(shuffle int) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, e := range s.outputs {
		if key.Shuffle == shuffle {
			s.discardLocked(e)
			delete(s.outputs, key)
		}
	}
	return nil
}

// Reset implements Store.
func (s *SpillStore) Reset() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	for key, e := range s.outputs {
		s.discardLocked(e)
		delete(s.outputs, key)
	}
	return nil
}

// Close implements Store: drops every output and removes the spill
// directory.
func (s *SpillStore) Close() error {
	if err := s.Reset(); err != nil {
		return err
	}
	return os.RemoveAll(s.dir)
}

// Accountant implements Store.
func (s *SpillStore) Accountant() *Accountant { return s.acct }

// discardLocked forgets one entry's storage (file included) without
// removing it from the map; callers delete or replace the map slot.
func (s *SpillStore) discardLocked(e *spillEntry) {
	if e.spilled {
		_ = os.Remove(e.path)
		s.acct.dropSpilled(e.bytes)
		return
	}
	s.acct.resident(-e.bytes, -1)
}

// ensureResidentLocked reloads a spilled entry and re-enforces the budget
// against the other entries (the reload itself may overflow it).
func (s *SpillStore) ensureResidentLocked(e *spillEntry) error {
	s.touchLocked(e)
	if !e.spilled {
		return nil
	}
	data, err := os.ReadFile(e.path)
	if err != nil {
		return fmt.Errorf("blockstore: reloading spilled output: %w", err)
	}
	flat, shards, err := decodeSpill(data)
	if err != nil {
		return fmt.Errorf("blockstore: decoding spilled output %s: %w", e.path, err)
	}
	_ = os.Remove(e.path)
	e.flat, e.shards = flat, shards
	e.spilled, e.path = false, ""
	s.acct.reload(e.bytes)
	return s.enforceBudgetLocked(e)
}

// enforceBudgetLocked spills the coldest resident entries (never exclude,
// the one the caller is actively using) until resident bytes fit the
// budget or no candidate remains.
func (s *SpillStore) enforceBudgetLocked(exclude *spillEntry) error {
	for s.acct.Stats().ResidentBytes > s.cfg.MemoryBudget {
		var victim *spillEntry
		for _, e := range s.outputs {
			if e.spilled || e == exclude {
				continue
			}
			if victim == nil || e.lastUse < victim.lastUse {
				victim = e
			}
		}
		if victim == nil {
			return nil // nothing left to evict; stay over budget
		}
		if err := s.spillLocked(victim); err != nil {
			return err
		}
	}
	return nil
}

// spillLocked writes one resident entry to a fresh file in the store's
// spill directory and frees its records.
func (s *SpillStore) spillLocked(e *spillEntry) error {
	data, err := encodeSpill(e.flat, e.shards)
	if err != nil {
		return fmt.Errorf("blockstore: encoding spill file: %w", err)
	}
	s.nfiles++
	path := filepath.Join(s.dir, fmt.Sprintf("block-%d.rec", s.nfiles))
	if err := os.WriteFile(path, data, 0o600); err != nil {
		_ = os.Remove(path)
		return fmt.Errorf("blockstore: writing spill file: %w", err)
	}
	e.flat, e.shards = nil, nil
	e.spilled, e.path = true, path
	s.acct.spill(e.bytes)
	return nil
}

// Spill files hold one form byte, then the output in the rdd record codec:
// a flat record list, or the per-reduce shards once it was bucketed.
const (
	spillFlat byte = iota
	spillSharded
)

// encodeSpill encodes one output into an exactly sized buffer.
func encodeSpill(flat []rdd.Pair, shards [][]rdd.Pair) ([]byte, error) {
	if shards != nil {
		n, err := rdd.ShardsSize(shards)
		if err != nil {
			return nil, err
		}
		return rdd.AppendShards(append(make([]byte, 0, 1+n), spillSharded), shards)
	}
	n, err := rdd.EncodedSize(flat)
	if err != nil {
		return nil, err
	}
	return rdd.AppendRecords(append(make([]byte, 0, 1+n), spillFlat), flat)
}

// decodeSpill is the inverse of encodeSpill. Every error wraps
// rdd.ErrCorrupt.
func decodeSpill(data []byte) (flat []rdd.Pair, shards [][]rdd.Pair, err error) {
	if len(data) == 0 {
		return nil, nil, fmt.Errorf("%w: empty spill file", rdd.ErrCorrupt)
	}
	switch data[0] {
	case spillFlat:
		flat, err = rdd.DecodeRecords(data[1:])
	case spillSharded:
		shards, err = rdd.DecodeShards(data[1:])
	default:
		err = fmt.Errorf("%w: unknown spill form %d", rdd.ErrCorrupt, data[0])
	}
	return flat, shards, err
}
