package main

import (
	"fmt"
	"hash/fnv"
	"math/rand"
	"strings"

	"wanshuffle/internal/livecluster"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// sizes are the live workloads' input sizes. Tests shrink them.
type sizes struct {
	wcParts, wcLines, wcWords, wcVocab  int
	sortParts, sortRecords, sortPayload int
	// sortBudget is each worker's block-store memory budget for Sort,
	// below one worker's map output so every job spills.
	sortBudget int64
	// reduceParts is the reduce-side partition count of both live jobs.
	reduceParts int
	// simWorkloads names the paper workloads a sim-fig7 sweep covers;
	// empty means all five.
	simWorkloads []string
}

func defaultSizes() sizes {
	return sizes{
		wcParts: 16, wcLines: 8000, wcWords: 8, wcVocab: 20000,
		sortParts: 16, sortRecords: 12500, sortPayload: 104,
		sortBudget:  2 << 20,
		reduceParts: 8,
	}
}

// liveWorkload is one job shape for the live cluster. lineage builds a
// fresh lineage over the shared, pre-generated input partitions on every
// call, so no job inherits planner state (such as a prepared range
// partitioner) from an earlier one.
type liveWorkload struct {
	name   string
	mode   livecluster.Mode
	budget int64
	// spillDir is where the block store spills when budget is positive.
	spillDir string
	// records counts map-input records per job (words for WordCount).
	records int
	lineage func() *rdd.RDD
	// check verifies one job's output.
	check func(out []rdd.Pair) error
}

// inputHost places input partition i: half of them on worker 0 and the
// rest round-robin over workers 1..3, so aggregator placement has a clear
// but non-trivial winner. The live cluster maps host h to worker h mod 4.
func inputHost(i, parts int) int {
	if i < parts/2 {
		return 0
	}
	return 1 + (i-parts/2)%3
}

// newWordCount builds WordCount in push mode over zipf-distributed words,
// with the rdd.CollectLocal reference its check compares against.
func newWordCount(seed int64, sz sizes) *liveWorkload {
	rng := rand.New(rand.NewSource(seed))
	zipf := rand.NewZipf(rng, 1.1, 1, uint64(sz.wcVocab-1))
	vocab := make([]string, sz.wcVocab)
	for i := range vocab {
		vocab[i] = fmt.Sprintf("w%05d", i)
	}
	parts := make([]rdd.InputPartition, sz.wcParts)
	words := make([]string, sz.wcWords)
	for p := range parts {
		recs := make([]rdd.Pair, sz.wcLines)
		for l := range recs {
			for w := range words {
				words[w] = vocab[zipf.Uint64()]
			}
			recs[l] = rdd.KV(fmt.Sprintf("p%02d-l%05d", p, l), strings.Join(words, " "))
		}
		parts[p] = rdd.InputPartition{Host: topology.HostID(inputHost(p, sz.wcParts)), Records: recs, ModeledBytes: rdd.SizeOfAll(recs)}
	}
	wl := &liveWorkload{
		name:    "live-wc-push",
		mode:    livecluster.ModePush,
		records: sz.wcParts * sz.wcLines * sz.wcWords,
	}
	wl.lineage = func() *rdd.RDD {
		g := rdd.NewGraph()
		return g.Input("wc.text", parts).
			FlatMap("wc.split", splitWords).
			ReduceByKey("wc.count", sz.reduceParts, sumInts)
	}
	ref := rdd.CollectLocal(wl.lineage())
	want := make(map[string]int, len(ref))
	for _, p := range ref {
		want[p.Key] = p.Value.(int)
	}
	wl.check = func(out []rdd.Pair) error {
		if len(out) != len(want) {
			return fmt.Errorf("wordcount: %d distinct words, want %d", len(out), len(want))
		}
		seen := make(map[string]bool, len(out))
		for _, p := range out {
			n, ok := p.Value.(int)
			if !ok || seen[p.Key] || want[p.Key] != n {
				return fmt.Errorf("wordcount: word %q: got %v, want %d", p.Key, p.Value, want[p.Key])
			}
			seen[p.Key] = true
		}
		return nil
	}
	return wl
}

func splitWords(p rdd.Pair) []rdd.Pair {
	fields := strings.Fields(p.Value.(string))
	out := make([]rdd.Pair, len(fields))
	for i, w := range fields {
		out[i] = rdd.KV(w, 1)
	}
	return out
}

func sumInts(a, b rdd.Value) rdd.Value { return a.(int) + b.(int) }

// newSort builds Sort in fetch mode under a memory budget: 10-digit keys
// with a payload each, globally ordered by a range partitioner.
func newSort(seed int64, sz sizes, spillDir string) *liveWorkload {
	rng := rand.New(rand.NewSource(seed))
	// Payloads are windows of one random text, so generation stays cheap
	// while neighbouring records still differ.
	text := make([]byte, 2*sz.sortPayload+256)
	for i := range text {
		text[i] = 'a' + byte(rng.Intn(26))
	}
	base := string(text)
	parts := make([]rdd.InputPartition, sz.sortParts)
	var wantHash uint64
	for p := range parts {
		recs := make([]rdd.Pair, sz.sortRecords)
		for i := range recs {
			off := rng.Intn(len(base) - sz.sortPayload)
			recs[i] = rdd.KV(fmt.Sprintf("%010d", rng.Int63n(1e10)), base[off:off+sz.sortPayload])
			wantHash += recordHash(recs[i])
		}
		parts[p] = rdd.InputPartition{Host: topology.HostID(inputHost(p, sz.sortParts)), Records: recs, ModeledBytes: rdd.SizeOfAll(recs)}
	}
	want := sz.sortParts * sz.sortRecords
	wl := &liveWorkload{
		name:     "live-sort-fetch-spill",
		mode:     livecluster.ModeFetch,
		budget:   sz.sortBudget,
		spillDir: spillDir,
		records:  want,
	}
	wl.lineage = func() *rdd.RDD {
		return rdd.NewGraph().Input("sort.input", parts).SortByKey("sort.sorted", sz.reduceParts)
	}
	wl.check = func(out []rdd.Pair) error {
		if len(out) != want {
			return fmt.Errorf("sort: %d records, want %d", len(out), want)
		}
		var h uint64
		for i, p := range out {
			if i > 0 && p.Key < out[i-1].Key {
				return fmt.Errorf("sort: record %d key %q precedes %q", i, p.Key, out[i-1].Key)
			}
			h += recordHash(p)
		}
		if h != wantHash {
			return fmt.Errorf("sort: output multiset hash %x, want %x", h, wantHash)
		}
		return nil
	}
	return wl
}

// recordHash hashes one key/payload record; summing it over a dataset
// gives an order-independent multiset hash.
func recordHash(p rdd.Pair) uint64 {
	h := fnv.New64a()
	h.Write([]byte(p.Key))
	h.Write([]byte{0})
	if s, ok := p.Value.(string); ok {
		h.Write([]byte(s))
	} else {
		fmt.Fprint(h, p.Value)
	}
	return h.Sum64()
}
