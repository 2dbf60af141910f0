package plan

import (
	"fmt"
	"sync"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/dag"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// outMeta is the placement metadata of one map output: which site holds
// it and how big it measured. The records themselves live in the
// backend's block store — the same storage code path the live cluster's
// workers use, so bucketing caches and attempt idempotency are not
// reimplemented here.
type outMeta struct {
	bytes   float64
	site    int
	attempt int
	done    bool
}

// MemBackend is the in-memory reference Backend: tasks run inline, shuffle
// bytes "move" by recording which site holds each map output. It exists to
// test the Driver's planning, placement, and aggregation decisions without
// a network, and as the template for real backends.
type MemBackend struct {
	Sites int

	// Events collects the driver's run events (task lifecycle + stage
	// spans).
	Events *obs.Collector

	// store holds the prepared map outputs; it locks internally. b.mu only
	// guards the placement metadata and stage spans.
	store blockstore.Store

	mu    sync.Mutex
	meta  map[int][]outMeta // shuffle ID -> per-map-part placement
	spans []StageSpan
}

// NewMemBackend creates a backend with the given number of sites, storing
// shuffle blocks fully resident.
func NewMemBackend(sites int) *MemBackend {
	return NewMemBackendWithStore(sites, blockstore.NewMemStore(nil))
}

// NewMemBackendWithStore creates a backend over an explicit block store —
// e.g. a blockstore.SpillStore, to exercise the driver against spill-prone
// storage without a network.
func NewMemBackendWithStore(sites int, store blockstore.Store) *MemBackend {
	return &MemBackend{Sites: sites, Events: obs.NewCollector(), store: store, meta: map[int][]outMeta{}}
}

// Store returns the backend's block store.
func (b *MemBackend) Store() blockstore.Store { return b.store }

// NumSites implements Backend.
func (b *MemBackend) NumSites() int { return b.Sites }

// SiteOfHost implements Backend: hosts wrap onto sites round-robin.
func (b *MemBackend) SiteOfHost(h topology.HostID) int { return int(h) % b.Sites }

// Spans returns the stage spans reported so far.
func (b *MemBackend) Spans() []StageSpan {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]StageSpan(nil), b.spans...)
}

// HolderSites returns which site holds each map output of a shuffle.
func (b *MemBackend) HolderSites(shuffleID int) []int {
	b.mu.Lock()
	defer b.mu.Unlock()
	outs := b.meta[shuffleID]
	sites := make([]int, len(outs))
	for i, o := range outs {
		sites[i] = o.site
	}
	return sites
}

// InputSizes implements Backend: leaf partition bytes at their home sites
// plus measured map-output bytes at their holder sites.
func (b *MemBackend) InputSizes(st *dag.Stage) []float64 {
	bySite := make([]float64, b.Sites)
	for _, src := range st.Sources {
		for _, p := range src.Input {
			bySite[b.SiteOfHost(p.Host)] += rdd.SizeOfAll(p.Records)
		}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, bd := range st.Boundaries {
		for di := range bd.Deps {
			for _, out := range b.meta[bd.Deps[di].Shuffle.ID] {
				bySite[out.site] += out.bytes
			}
		}
	}
	return bySite
}

// RunMapTask implements Backend: evaluate the partition, prepare it for the
// stage's shuffle, and store it at aggTo (pushed) or site (kept local).
func (b *MemBackend) RunMapTask(st *dag.Stage, part, site, aggTo, attempt int) error {
	recs, err := EvalStagePart(st, part, b.read)
	if err != nil {
		return err
	}
	prepared := rdd.MapSidePrepare(st.OutSpec, recs)
	holder := site
	if aggTo >= 0 {
		holder = aggTo
	}
	stored, _, err := b.store.Put(
		blockstore.Key{Shuffle: st.OutSpec.ID, MapPart: part},
		blockstore.Output{Attempt: attempt, Records: prepared})
	if err != nil {
		return err
	}
	if !stored {
		return nil // a newer attempt already landed; keep its output
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	outs := b.meta[st.OutSpec.ID]
	if outs == nil {
		outs = make([]outMeta, st.NumTasks)
		b.meta[st.OutSpec.ID] = outs
	}
	if outs[part].done && outs[part].attempt > attempt {
		return nil
	}
	outs[part] = outMeta{bytes: rdd.SizeOfAll(prepared), site: holder, attempt: attempt, done: true}
	return nil
}

// RunResultTask implements Backend.
func (b *MemBackend) RunResultTask(st *dag.Stage, part, site int) ([]rdd.Pair, error) {
	return EvalStagePart(st, part, b.read)
}

// Barrier implements Backend: prepare a range partitioner from keys sampled
// across the finished map outputs, like the engine's map-stage barrier.
func (b *MemBackend) Barrier(st *dag.Stage) error {
	b.mu.Lock()
	numMaps := len(b.meta[st.OutSpec.ID])
	b.mu.Unlock()
	return PrepareRange(st.OutSpec, b.store, numMaps)
}

// PrepareRange is the map-stage barrier's sampling step for
// range-partitioned shuffles (Spark's sortByKey sampling, which the
// paper's Fig. 3 shows happening before reducers fetch their shards): it
// gathers the key samples the store took when map partitions [0, numMaps)
// were put, in map order, and prepares spec's partitioner from them.
// Other shuffles, and a partitioner already prepared, are left alone.
func PrepareRange(spec *rdd.ShuffleSpec, store blockstore.Store, numMaps int) error {
	if !spec.SampleForRange || spec.Partitioner.Ready() {
		return nil
	}
	var sample []string
	for part := 0; part < numMaps; part++ {
		keys, err := store.Sample(blockstore.Key{Shuffle: spec.ID, MapPart: part})
		if err != nil {
			return fmt.Errorf("plan: sampling shuffle %d map %d: %w", spec.ID, part, err)
		}
		sample = append(sample, keys...)
	}
	spec.Partitioner.(*rdd.RangePartitioner).Prepare(sample)
	return nil
}

// OnTask implements Backend (obs.Sink).
func (b *MemBackend) OnTask(ev obs.TaskEvent) { b.Events.OnTask(ev) }

// OnStage implements Backend (obs.Sink).
func (b *MemBackend) OnStage(span StageSpan) {
	b.Events.OnStage(span)
	b.mu.Lock()
	defer b.mu.Unlock()
	b.spans = append(b.spans, span)
}

// read gathers one reduce partition's shard from every map output, in map
// order. The store buckets each output at most once (on its first shard
// read), so reading R reduce partitions does not re-bucket the output R
// times — the same exactly-once semantics the live workers rely on.
func (b *MemBackend) read(spec *rdd.ShuffleSpec, reducePart int) ([]rdd.Pair, error) {
	b.mu.Lock()
	outs := append([]outMeta(nil), b.meta[spec.ID]...)
	b.mu.Unlock()
	bucket := func(recs []rdd.Pair) ([][]rdd.Pair, error) {
		return rdd.BucketRecords(spec, recs), nil
	}
	var recs []rdd.Pair
	for part := range outs {
		if !outs[part].done {
			return nil, fmt.Errorf("plan: shuffle %d map output %d missing", spec.ID, part)
		}
		shards, err := b.store.Shards(blockstore.Key{Shuffle: spec.ID, MapPart: part}, bucket)
		if err != nil {
			return nil, err
		}
		if reducePart < 0 || reducePart >= len(shards) {
			return nil, fmt.Errorf("plan: shuffle %d reduce %d out of range", spec.ID, reducePart)
		}
		recs = append(recs, shards[reducePart]...)
	}
	return recs, nil
}
