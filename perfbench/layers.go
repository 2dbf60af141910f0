package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"runtime"
	"time"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/dag"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
)

// span is one timed call the benchmark made into a layer.
type span struct {
	Name     string  `json:"name"`
	Rep      int     `json:"rep"`
	StartSec float64 `json:"start_sec"`
	EndSec   float64 `json:"end_sec"`
}

// spanLog keeps the benchmark's own spans in memory until the run ends.
type spanLog struct {
	epoch time.Time
	spans []span
}

// time runs fn inside a span named name and returns its seconds.
func (l *spanLog) time(name string, rep int, fn func()) float64 {
	if l.epoch.IsZero() {
		l.epoch = time.Now()
	}
	t0 := time.Now()
	fn()
	t1 := time.Now()
	l.spans = append(l.spans, span{Name: name, Rep: rep, StartSec: t0.Sub(l.epoch).Seconds(), EndSec: t1.Sub(l.epoch).Seconds()})
	return t1.Sub(t0).Seconds()
}

// dump writes the spans as a JSON array.
func (l *spanLog) dump(path string) error {
	data, err := json.Marshal(l.spans)
	if err != nil {
		return fmt.Errorf("encoding spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return fmt.Errorf("writing spans: %w", err)
	}
	return nil
}

// errNoShuffle rejects shuffle reads while evaluating a job's first map
// stage, which reads leaf inputs only.
var errNoShuffle = errors.New("first map stage read a shuffle")

// firstMapStage returns the job's first map stage: it reads leaf inputs
// only and feeds a shuffle.
func firstMapStage(target *rdd.RDD) (*dag.Stage, error) {
	job, err := plan.BuildJob(target)
	if err != nil {
		return nil, err
	}
	for _, st := range job.Stages() {
		if st.OutSpec != nil && len(st.Parents) == 0 && len(st.Phases) == 1 {
			return st, nil
		}
	}
	return nil, fmt.Errorf("%s: no map stage reads leaf inputs only", target.Name)
}

// allocsDuring returns the heap allocations fn made.
func allocsDuring(fn func()) float64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs - before.Mallocs)
}

// measureLayers times direct calls into the rdd layer (and, when useStore
// is set, the blockstore layer) on the workloads' own records, then the
// obs layer's counter paths, opts.layerReps times, recording one sample
// per repetition. lineages returns fresh lineages on every call. For each
// lineage it takes the shuffle spec of the job's first map stage, computes
// that stage's map outputs, and runs the shuffle's record path on them:
// map-side combine, bucketing, and reduce-side aggregation of every reduce
// partition, plus a single-threaded rdd.CollectLocal of the whole job. The
// block store, when used, stores the combined map outputs and reads their
// shards back under budget (0 means the resident store).
func measureLayers(opts options, log *spanLog, s samples, lineages func() []*rdd.RDD, useStore bool, budget int64, spillDir string) error {
	for rep := 0; rep < opts.layerReps; rep++ {
		var prep, prepAllocs, bucket, reduce, reduceAllocs, evalLocal, put, shards float64
		var in, out int
		for _, target := range lineages() {
			st, err := firstMapStage(target)
			if err != nil {
				return err
			}
			spec := st.OutSpec
			mapOut := make([][]rdd.Pair, st.NumTasks)
			for part := range mapOut {
				if mapOut[part], err = plan.EvalStagePart(st, part, func(*rdd.ShuffleSpec, int) ([]rdd.Pair, error) {
					return nil, errNoShuffle
				}); err != nil {
					return fmt.Errorf("%s: evaluating map partition %d: %w", target.Name, part, err)
				}
				in += len(mapOut[part])
			}

			prepared := make([][]rdd.Pair, len(mapOut))
			prepAllocs += allocsDuring(func() {
				prep += log.time("rdd.MapSidePrepare", rep, func() {
					for part, recs := range mapOut {
						prepared[part] = rdd.MapSidePrepare(spec, recs)
					}
				})
			})
			for _, recs := range prepared {
				out += len(recs)
			}
			if spec.SampleForRange && !spec.Partitioner.Ready() {
				// What the map-stage barrier does before anything is bucketed.
				var sample []string
				for _, recs := range prepared {
					sample = append(sample, rdd.SampleKeys(recs, 1000)...)
				}
				spec.Partitioner.(*rdd.RangePartitioner).Prepare(sample)
			}

			buckets := make([][][]rdd.Pair, len(prepared))
			bucket += log.time("rdd.BucketRecords", rep, func() {
				for part, recs := range prepared {
					buckets[part] = rdd.BucketRecords(spec, recs)
				}
			})
			gathered := make([][]rdd.Pair, spec.Partitioner.NumPartitions())
			for _, b := range buckets {
				for r, shard := range b {
					gathered[r] = append(gathered[r], shard...)
				}
			}
			reduceAllocs += allocsDuring(func() {
				reduce += log.time("rdd.ReduceAggregate", rep, func() {
					for _, recs := range gathered {
						rdd.ReduceAggregate(spec, recs)
					}
				})
			})

			if useStore {
				p, sh, err := measureStore(log, rep, spec, prepared, budget, spillDir)
				if err != nil {
					return err
				}
				put += p
				shards += sh
			}
		}
		for _, target := range lineages() {
			evalLocal += log.time("rdd.CollectLocal", rep, func() { rdd.CollectLocal(target) })
		}
		s.add("rdd.map_side_prepare_s", prep)
		s.add("rdd.map_side_prepare_allocs", prepAllocs)
		s.add("rdd.combine_ratio", ratio(float64(out), float64(in)))
		s.add("rdd.bucket_s", bucket)
		s.add("rdd.reduce_aggregate_s", reduce)
		s.add("rdd.reduce_aggregate_allocs", reduceAllocs)
		s.add("rdd.eval_local_s", evalLocal)
		s.add("blockstore.put_s", put)
		s.add("blockstore.shards_s", shards)
		measureObs(log, rep, s)
	}
	return nil
}

// measureStore times putting every map output of one shuffle into a fresh
// block store and reading each one's shards back (bucketing it, and
// reloading it first if it spilled).
func measureStore(log *spanLog, rep int, spec *rdd.ShuffleSpec, outputs [][]rdd.Pair, budget int64, spillDir string) (putSec, shardsSec float64, err error) {
	var store blockstore.Store = blockstore.NewMemStore(nil)
	if budget > 0 {
		if store, err = blockstore.NewSpillStore(blockstore.SpillConfig{MemoryBudget: budget, Dir: spillDir}, nil); err != nil {
			return 0, 0, err
		}
	}
	defer store.Close()
	putSec = log.time("blockstore.Put", rep, func() {
		for part, recs := range outputs {
			if _, _, e := store.Put(blockstore.Key{Shuffle: spec.ID, MapPart: part}, blockstore.Output{Attempt: 1, Records: recs}); e != nil && err == nil {
				err = e
			}
		}
	})
	if err != nil {
		return 0, 0, fmt.Errorf("blockstore put: %w", err)
	}
	bucket := func(recs []rdd.Pair) ([][]rdd.Pair, error) { return rdd.BucketRecords(spec, recs), nil }
	shardsSec = log.time("blockstore.Shards", rep, func() {
		for part := range outputs {
			if _, e := store.Shards(blockstore.Key{Shuffle: spec.ID, MapPart: part}, bucket); e != nil && err == nil {
				err = e
			}
		}
	})
	if err != nil {
		return 0, 0, fmt.Errorf("blockstore shards: %w", err)
	}
	return putSec, shardsSec, nil
}

// obsCalls is how many counter updates one obs timing makes.
const obsCalls = 200_000

// measureObs times the simulator's per-delivery metrics call — resolving
// bytes_moved_total{class} by label map, then adding — against adding to
// a counter bound once up front.
func measureObs(log *spanLog, rep int, s samples) {
	classes := []string{"input", "shuffle", "push", "result"}
	reg := obs.NewRegistry()
	lookup := log.time("obs.Registry.Counter+Add", rep, func() {
		for i := 0; i < obsCalls; i++ {
			reg.Counter("bytes_moved_total", obs.Labels{"class": classes[i%len(classes)]}).Add(1)
		}
	})
	bound := make([]*obs.Counter, len(classes))
	for i, c := range classes {
		bound[i] = reg.Counter("bytes_moved_total", obs.Labels{"class": c})
	}
	add := log.time("obs.Counter.Add", rep, func() {
		for i := 0; i < obsCalls; i++ {
			bound[i%len(bound)].Add(1)
		}
	})
	s.add("obs.counter_lookup_ns", lookup/obsCalls*1e9)
	s.add("obs.counter_add_ns", add/obsCalls*1e9)
}
