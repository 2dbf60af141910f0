package rdd

import (
	"cmp"
	"slices"
	"strings"
)

// SampleSize is how many keys the map-stage barrier samples from each map
// output to prepare a range partitioner.
const SampleSize = 1000

// The helpers below implement the record-level semantics of a shuffle.
// They are shared between the simulated engine (internal/exec) and the
// in-memory reference evaluator (EvalLocal), so both sides agree exactly on
// data sizes and results. All outputs are key-sorted, making every
// evaluation deterministic regardless of map iteration order.

// MapSidePrepare applies map-side combining to one map output partition if
// the spec requests it (Sec. IV-C3: combine runs on the mapper, pipelined
// before any push), returning the records that will leave the mapper.
func MapSidePrepare(spec *ShuffleSpec, records []Pair) []Pair {
	if !spec.MapSideCombine || spec.Combine == nil {
		return records
	}
	return combineByKey(spec.Combine, records)
}

// BucketRecords shards records into the spec's reduce partitions. The
// partitioner must be Ready. One pass records each record's partition, a
// second fills shards allocated at their exact sizes; an empty shard is
// nil.
func BucketRecords(spec *ShuffleSpec, records []Pair) [][]Pair {
	n := spec.Partitioner.NumPartitions()
	out := make([][]Pair, n)
	if len(records) == 0 {
		return out
	}
	// One allocation holds each record's partition, then the shard sizes.
	scratch := make([]int32, len(records)+n)
	parts, sizes := scratch[:len(records)], scratch[len(records):]
	for j, p := range records {
		i := spec.Partitioner.PartitionFor(p.Key)
		parts[j] = int32(i)
		sizes[i]++
	}
	for i, size := range sizes {
		if size > 0 {
			out[i] = make([]Pair, 0, size)
		}
	}
	for j, p := range records {
		out[parts[j]] = append(out[parts[j]], p)
	}
	return out
}

// ReduceAggregate applies the reduce-side semantics of the spec to one
// reduce partition's gathered shard records: combining, grouping, or
// sorting as requested. It never modifies records, so callers may pass
// storage they do not own.
func ReduceAggregate(spec *ShuffleSpec, records []Pair) []Pair {
	switch {
	case spec.GroupAll:
		return groupByKey(records)
	case spec.Combine != nil:
		return combineByKey(spec.Combine, records)
	}
	if spec.SortKeys {
		return sortStable(records)
	}
	out := make([]Pair, len(records))
	copy(out, records)
	return out
}

// sortEntry is one record's place in sortStable's index: the first eight
// key bytes, big-endian and zero-padded, and the record's input position.
type sortEntry struct {
	prefix uint64
	idx    int
}

// sortStable returns records ordered by key, equal keys in input order —
// exactly what slices.SortStableFunc(compareKeys) yields — without
// touching records. Keys repeat here, so only a stable order is
// deterministic. Sorting small fixed-size entries by a key prefix, with
// the full key and the input position breaking ties, makes the order
// total, so an unstable sort gives the stable result; the records are
// then gathered once.
func sortStable(records []Pair) []Pair {
	entries := make([]sortEntry, len(records))
	for i, p := range records {
		entries[i] = sortEntry{prefix: keyPrefix(p.Key), idx: i}
	}
	slices.SortFunc(entries, func(a, b sortEntry) int {
		if c := cmp.Compare(a.prefix, b.prefix); c != 0 {
			return c
		}
		if c := strings.Compare(records[a.idx].Key, records[b.idx].Key); c != 0 {
			return c
		}
		return cmp.Compare(a.idx, b.idx)
	})
	out := make([]Pair, len(records))
	for i, e := range entries {
		out[i] = records[e.idx]
	}
	return out
}

// keyPrefix packs a key's first eight bytes big-endian, zero-padding short
// keys. Distinct prefixes order as their keys do; equal prefixes say
// nothing (a short key equals itself with trailing zero bytes).
func keyPrefix(key string) uint64 {
	var p uint64
	n := min(len(key), 8)
	for i := 0; i < n; i++ {
		p |= uint64(key[i]) << (56 - 8*i)
	}
	return p
}

// SampleKeys draws up to max keys from records deterministically (evenly
// strided), for range-partitioner preparation.
func SampleKeys(records []Pair, max int) []string {
	if max <= 0 {
		max = 1
	}
	stride := len(records)/max + 1
	var keys []string
	for i := 0; i < len(records); i += stride {
		keys = append(keys, records[i].Key)
	}
	return keys
}

func combineByKey(fn CombineFn, records []Pair) []Pair {
	// No size hint: combining usually folds many records into few keys,
	// and a hint of len(records) allocates and clears a table sized for
	// the case where it folds none.
	acc := make(map[string]Value)
	for _, p := range records {
		if cur, ok := acc[p.Key]; ok {
			acc[p.Key] = fn(cur, p.Value)
		} else {
			acc[p.Key] = p.Value
		}
	}
	out := make([]Pair, 0, len(acc))
	for k, v := range acc {
		out = append(out, Pair{Key: k, Value: v})
	}
	slices.SortFunc(out, compareKeys)
	return out
}

func groupByKey(records []Pair) []Pair {
	acc := make(map[string][]Value, len(records))
	for _, p := range records {
		acc[p.Key] = append(acc[p.Key], p.Value)
	}
	out := make([]Pair, 0, len(acc))
	for k, vs := range acc {
		out = append(out, Pair{Key: k, Value: vs})
	}
	slices.SortFunc(out, compareKeys)
	return out
}

// compareKeys orders records by key. combineByKey and groupByKey emit
// unique keys, so they may sort unstably and their output is final.
func compareKeys(a, b Pair) int { return strings.Compare(a.Key, b.Key) }
