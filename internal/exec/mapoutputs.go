package exec

import (
	"fmt"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/plan"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// mapOutputs tracks the simulator's map output between stages, the
// equivalent of Spark's MapOutputTracker. The records live in a
// blockstore.MemStore, the store the live workers and plan.MemBackend keep
// theirs in, so last-write-wins and bucketing on first read are not
// reimplemented here. The table keeps only what the simulator models on
// top: the host holding each output and its modeled size, whole and per
// reduce shard.
type mapOutputs struct {
	store    blockstore.Store
	shuffles map[int]*shuffleOutputs
}

type shuffleOutputs struct {
	spec   *rdd.ShuffleSpec
	bucket blockstore.BucketFunc
	outs   []mapOutput
	// ready latches at the map-stage barrier, once the partitioner is
	// prepared and reducers may read.
	ready bool
}

// mapOutput is one map partition's registered output.
type mapOutput struct {
	host topology.HostID
	// modeled is the output's size at workload scale; real is the real
	// size of the flat records as registered, the denominator that splits
	// modeled over the reduce shards.
	modeled, real float64
	// live is false until the output is registered, and again once its
	// host is lost.
	live bool
	// puts counts registrations and is the store's attempt number, so a
	// recompute replaces the lost output whichever task attempt made it.
	puts int
	// shardModeled is each reduce shard's modeled size, filled on the
	// first read after the barrier.
	shardModeled []float64
}

// shard is a reducer's view of one map output: where it is stored and
// how big its slice is.
type shard struct {
	host    topology.HostID
	modeled float64
	records []rdd.Pair
}

func newMapOutputs() *mapOutputs {
	return &mapOutputs{store: blockstore.NewMemStore(nil), shuffles: map[int]*shuffleOutputs{}}
}

// register declares a shuffle with its map-side partition count. Calling
// it again for the same shuffle is a no-op (stages are planned once per
// job, and jobs on one engine may share shuffles).
func (m *mapOutputs) register(spec *rdd.ShuffleSpec, numMaps int) {
	if _, ok := m.shuffles[spec.ID]; ok {
		return
	}
	m.shuffles[spec.ID] = &shuffleOutputs{
		spec:   spec,
		bucket: func(recs []rdd.Pair) ([][]rdd.Pair, error) { return rdd.BucketRecords(spec, recs), nil },
		outs:   make([]mapOutput, numMaps),
	}
}

func (m *mapOutputs) shuffle(id int) *shuffleOutputs {
	so, ok := m.shuffles[id]
	if !ok {
		panic(fmt.Sprintf("exec: unknown shuffle %d", id))
	}
	return so
}

// put registers one map partition's output, replacing any earlier one.
// After the barrier the store buckets the new records on their next read
// with the already prepared partitioner.
func (m *mapOutputs) put(id, mapPart int, host topology.HostID, records []rdd.Pair, modeled float64) {
	so := m.shuffle(id)
	if mapPart < 0 || mapPart >= len(so.outs) {
		panic(fmt.Sprintf("exec: shuffle %d: map partition %d out of range [0,%d)", id, mapPart, len(so.outs)))
	}
	out := &so.outs[mapPart]
	key := blockstore.Key{Shuffle: id, MapPart: mapPart}
	puts := out.puts + 1
	if _, _, err := m.store.Put(key, blockstore.Output{Attempt: puts, Records: records}); err != nil {
		panic(fmt.Sprintf("exec: storing %v: %v", key, err))
	}
	*out = mapOutput{host: host, modeled: modeled, real: rdd.SizeOfAll(records), live: true, puts: puts}
}

// dropHost marks every output stored on host lost: the shuffle files of
// Sec. II-A live on the host's local disk.
func (m *mapOutputs) dropHost(host topology.HostID) {
	for _, so := range m.shuffles {
		for i := range so.outs {
			if so.outs[i].host == host {
				so.outs[i].live = false
			}
		}
	}
}

// missing marks the shuffle's outputs on dead hosts lost, then lists the
// map partitions without live output, in map order.
func (m *mapOutputs) missing(id int, dead []bool) []int {
	so := m.shuffle(id)
	var parts []int
	for i := range so.outs {
		out := &so.outs[i]
		if out.live && dead[out.host] {
			out.live = false
		}
		if !out.live {
			parts = append(parts, i)
		}
	}
	return parts
}

// barrier runs once the map stage is complete: every output must be live,
// and a range partitioner is prepared from keys sampled across them.
// Outputs are bucketed later, each on its first read. Idempotent.
func (m *mapOutputs) barrier(id int) {
	so := m.shuffle(id)
	if so.ready {
		return
	}
	for i := range so.outs {
		if !so.outs[i].live {
			panic(fmt.Sprintf("exec: %v missing at the map-stage barrier", blockstore.Key{Shuffle: id, MapPart: i}))
		}
	}
	if err := plan.PrepareRange(so.spec, m.store, len(so.outs)); err != nil {
		panic(fmt.Sprintf("exec: %v", err))
	}
	so.ready = true
}

// bucketed returns one output's per-reduce shards, filling its shard
// modeled sizes on the first read. Reading before the barrier, or reading
// a lost output, is an engine bug: reducers wait for the barrier and
// recover lost outputs first.
func (m *mapOutputs) bucketed(so *shuffleOutputs, mapPart int) [][]rdd.Pair {
	key := blockstore.Key{Shuffle: so.spec.ID, MapPart: mapPart}
	if !so.ready {
		panic(fmt.Sprintf("exec: %v read before the map-stage barrier", key))
	}
	out := &so.outs[mapPart]
	if !out.live {
		panic(fmt.Sprintf("exec: %v missing (lost with its host); recover before reading", key))
	}
	shards, err := m.store.Shards(key, so.bucket)
	if err != nil {
		panic(fmt.Sprintf("exec: reading %v: %v", key, err))
	}
	if out.shardModeled == nil {
		out.shardModeled = make([]float64, len(shards))
		for r, recs := range shards {
			if out.real > 0 {
				out.shardModeled[r] = rdd.SizeOfAll(recs) / out.real * out.modeled
			}
		}
	}
	return shards
}

// shards returns the reducer's input: one shard per map partition, in map
// order.
func (m *mapOutputs) shards(id, reducePart int) []shard {
	so := m.shuffle(id)
	out := make([]shard, len(so.outs))
	for i := range so.outs {
		recs := m.bucketed(so, i)[reducePart]
		out[i] = shard{host: so.outs[i].host, modeled: so.outs[i].shardModeled[reducePart], records: recs}
	}
	return out
}

// reducerHostBytes returns, per host, the modeled bytes of the reducer's
// input stored there, skipping lost outputs. It derives reduce-task
// preferredLocations, as Spark's getLocationsWithLargestOutputs does.
func (m *mapOutputs) reducerHostBytes(id, reducePart int) map[topology.HostID]float64 {
	so := m.shuffle(id)
	byHost := make(map[topology.HostID]float64)
	for i := range so.outs {
		if !so.outs[i].live {
			continue // pending recomputation
		}
		m.bucketed(so, i) // fills shardModeled on the first read
		if b := so.outs[i].shardModeled[reducePart]; b > 0 {
			byHost[so.outs[i].host] += b
		}
	}
	return byHost
}

// hostShare is the modeled bytes of one shuffle's live output on a host.
type hostShare struct {
	host  topology.HostID
	bytes float64
}

// hostBytes returns the modeled bytes of the shuffle's live outputs per
// holding host (available before the barrier; it feeds aggregator
// selection). Each total is summed in map-partition order and hosts come
// in the order of their first output, so callers folding the shares into
// floats get the same bits on every run.
func (m *mapOutputs) hostBytes(id int) []hostShare {
	var shares []hostShare
	for _, out := range m.shuffle(id).outs {
		if !out.live {
			continue
		}
		i := 0
		for i < len(shares) && shares[i].host != out.host {
			i++
		}
		if i == len(shares) {
			shares = append(shares, hostShare{host: out.host})
		}
		shares[i].bytes += out.modeled
	}
	return shares
}
