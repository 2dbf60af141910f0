package rdd

import (
	"slices"
	"strings"
)

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
// partitioner must be Ready.
func BucketRecords(spec *ShuffleSpec, records []Pair) [][]Pair {
	n := spec.Partitioner.NumPartitions()
	out := make([][]Pair, n)
	for _, p := range records {
		i := spec.Partitioner.PartitionFor(p.Key)
		out[i] = append(out[i], p)
	}
	return out
}

// ReduceAggregate applies the reduce-side semantics of the spec to one
// reduce partition's gathered shard records: combining, grouping, or
// sorting as requested.
func ReduceAggregate(spec *ShuffleSpec, records []Pair) []Pair {
	switch {
	case spec.GroupAll:
		return groupByKey(records)
	case spec.Combine != nil:
		return combineByKey(spec.Combine, records)
	}
	out := make([]Pair, len(records))
	copy(out, records)
	if spec.SortKeys {
		// Keys repeat here, so only a stable sort is deterministic.
		slices.SortStableFunc(out, compareKeys)
	}
	return out
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
