package exec

import (
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
	"testing/quick"

	"wanshuffle/internal/blockstore"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/topology"
)

// hashOutputs returns a map-output table with one registered hash shuffle
// (ID 1) of numMaps map and numReduces reduce partitions.
func hashOutputs(numMaps, numReduces int) (*mapOutputs, *rdd.ShuffleSpec) {
	m := newMapOutputs()
	spec := &rdd.ShuffleSpec{ID: 1, Partitioner: rdd.NewHashPartitioner(numReduces), Combine: sum}
	m.register(spec, numMaps)
	return m, spec
}

// shardRecords counts the records reducers 0..numReduces-1 read.
func shardRecords(m *mapOutputs, id, numReduces int) int {
	n := 0
	for r := 0; r < numReduces; r++ {
		for _, sh := range m.shards(id, r) {
			n += len(sh.records)
		}
	}
	return n
}

// sortKeys returns a range-partitioned sort shuffle (ID 2) of two map
// outputs holding keys 0000..0099 and 0100..0199.
func sortKeys(numReduces int) (*mapOutputs, *rdd.ShuffleSpec) {
	m := newMapOutputs()
	spec := &rdd.ShuffleSpec{ID: 2, Partitioner: rdd.NewRangePartitioner(numReduces), SortKeys: true, SampleForRange: true}
	m.register(spec, 2)
	for part := 0; part < 2; part++ {
		var recs []rdd.Pair
		for i := 0; i < 100; i++ {
			recs = append(recs, rdd.KV(fmt.Sprintf("%04d", 100*part+i), nil))
		}
		m.put(2, part, topology.HostID(part), recs, 100)
	}
	return m, spec
}

func TestMapOutputs(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"register is idempotent", func(t *testing.T) {
			m, spec := hashOutputs(2, 2)
			m.put(1, 0, 0, []rdd.Pair{rdd.KV("a", 1)}, 100)
			m.register(spec, 2) // must not wipe outputs
			if !m.shuffle(1).outs[0].live {
				t.Fatal("re-register cleared outputs")
			}
		}},
		{"barrier shards every output", func(t *testing.T) {
			m, _ := hashOutputs(2, 2)
			m.put(1, 0, 0, []rdd.Pair{rdd.KV("a", 1), rdd.KV("b", 2)}, 100)
			m.put(1, 1, 3, []rdd.Pair{rdd.KV("a", 5)}, 60)
			m.barrier(1)
			m.barrier(1) // idempotent
			for r := 0; r < 2; r++ {
				if got := len(m.shards(1, r)); got != 2 {
					t.Fatalf("reducer %d got %d shards, want one per map output", r, got)
				}
			}
			if got := shardRecords(m, 1, 2); got != 3 {
				t.Fatalf("shards carry %d records, want 3", got)
			}
		}},
		{"shard modeled bytes proportional", func(t *testing.T) {
			m, _ := hashOutputs(1, 2)
			recs := []rdd.Pair{rdd.KV("aa", 1), rdd.KV("bb", 1), rdd.KV("cc", 1), rdd.KV("dd", 1)}
			m.put(1, 0, 0, recs, 1000)
			m.barrier(1)
			var total float64
			for r := 0; r < 2; r++ {
				for _, sh := range m.shards(1, r) {
					total += sh.modeled
					want := rdd.SizeOfAll(sh.records) / rdd.SizeOfAll(recs) * 1000
					if math.Abs(sh.modeled-want) > 1e-9 {
						t.Fatalf("shard modeled %v, want %v", sh.modeled, want)
					}
				}
			}
			if math.Abs(total-1000) > 1e-9 {
				t.Fatalf("shard modeled bytes sum to %v, want 1000", total)
			}
		}},
		{"reducer host bytes", func(t *testing.T) {
			m := newMapOutputs()
			m.register(&rdd.ShuffleSpec{ID: 9, Partitioner: rdd.NewHashPartitioner(1)}, 3)
			m.put(9, 0, 0, []rdd.Pair{rdd.KV("x", "1234")}, 400)
			m.put(9, 1, 0, []rdd.Pair{rdd.KV("y", "12")}, 100)
			m.put(9, 2, 5, []rdd.Pair{rdd.KV("z", "1")}, 200)
			m.barrier(9)
			hb := m.reducerHostBytes(9, 0)
			if len(hb) != 2 || math.Abs(hb[0]-500) > 1e-9 || math.Abs(hb[5]-200) > 1e-9 {
				t.Fatalf("reducerHostBytes = %v, want host 0: 500, host 5: 200", hb)
			}
		}},
		{"reducer host bytes skip missing", func(t *testing.T) {
			m, _ := hashOutputs(2, 1)
			m.put(1, 0, 0, []rdd.Pair{rdd.KV("a", 1)}, 10)
			m.put(1, 1, 1, []rdd.Pair{rdd.KV("b", 1)}, 10)
			m.barrier(1)
			m.dropHost(1)
			if hb := m.reducerHostBytes(1, 0); len(hb) != 1 || hb[0] != 10 {
				t.Fatalf("reducerHostBytes = %v, want only host 0's 10 bytes", hb)
			}
		}},
		{"host bytes in map order", func(t *testing.T) {
			m, _ := hashOutputs(4, 1)
			m.put(1, 0, 7, nil, 1)
			m.put(1, 1, 2, nil, 20)
			m.put(1, 2, 7, nil, 300)
			m.put(1, 3, 2, nil, 4000)
			m.dropHost(2)
			m.put(1, 3, 2, nil, 5000) // recomputed on the restarted host
			got := fmt.Sprint(m.hostBytes(1))
			if want := "[{7 301} {2 5000}]"; got != want {
				t.Fatalf("hostBytes = %v, want %v", got, want)
			}
		}},
		{"lost outputs are missing until recomputed", func(t *testing.T) {
			m, _ := hashOutputs(3, 2)
			for part := 0; part < 3; part++ {
				m.put(1, part, topology.HostID(part), []rdd.Pair{rdd.KV("a", 1)}, 10)
			}
			dead := make([]bool, 8)
			if got := m.missing(1, dead); len(got) != 0 {
				t.Fatalf("missing = %v with every output live", got)
			}
			dead[1] = true // the host died, but nobody dropped its outputs yet
			if got := fmt.Sprint(m.missing(1, dead)); got != "[1]" {
				t.Fatalf("missing = %v, want [1]", got)
			}
			m.put(1, 1, 5, []rdd.Pair{rdd.KV("b", 2)}, 12)
			if got := m.missing(1, dead); len(got) != 0 {
				t.Fatalf("missing = %v after recompute", got)
			}
		}},
		{"drop host is scoped to its outputs", func(t *testing.T) {
			m := newMapOutputs()
			for _, id := range []int{7, 3} {
				m.register(&rdd.ShuffleSpec{ID: id, Partitioner: rdd.NewHashPartitioner(1)}, 2)
				m.put(id, 0, 4, []rdd.Pair{rdd.KV("a", 1)}, 1)
				m.put(id, 1, 9, []rdd.Pair{rdd.KV("b", 1)}, 1)
			}
			m.dropHost(4)
			dead := make([]bool, 10)
			for _, id := range []int{3, 7} {
				if got := fmt.Sprint(m.missing(id, dead)); got != "[0]" {
					t.Fatalf("shuffle %d missing %v after losing host 4, want [0]", id, got)
				}
			}
			m.dropHost(99)
			if got := fmt.Sprint(m.missing(7, dead)); got != "[0]" {
				t.Fatalf("dropping an empty host changed shuffle 7: missing %v", got)
			}
		}},
		{"range partitioner prepared at barrier", func(t *testing.T) {
			m, spec := sortKeys(3)
			if spec.Partitioner.Ready() {
				t.Fatal("partitioner prepared before the barrier")
			}
			m.barrier(2)
			if !spec.Partitioner.Ready() {
				t.Fatal("partitioner not prepared at the barrier")
			}
			// Every key in reduce partition r sorts at or below every key
			// in partition r+1.
			var prevMax string
			for r := 0; r < 3; r++ {
				var all []rdd.Pair
				for _, sh := range m.shards(2, r) {
					all = append(all, sh.records...)
				}
				agg := rdd.ReduceAggregate(spec, all)
				if len(agg) == 0 {
					continue
				}
				if agg[0].Key < prevMax {
					t.Fatalf("partition %d min %q < previous partition max %q", r, agg[0].Key, prevMax)
				}
				prevMax = agg[len(agg)-1].Key
			}
		}},
		{"re-put after barrier rebuckets with prepared partitioner", func(t *testing.T) {
			m, spec := sortKeys(2)
			m.barrier(2)
			boundary := fmt.Sprint(spec.Partitioner)
			before := shardRecords(m, 2, 2)
			// Failure recovery: map output 0 is lost and recomputed with
			// one extra record on another host.
			m.dropHost(0)
			m.put(2, 0, 7, append([]rdd.Pair{rdd.KV("0000a", nil)}, mustGet(t, m, 2, 0)...), 101)
			if got := fmt.Sprint(spec.Partitioner); got != boundary {
				t.Fatalf("partitioner re-prepared: %s, want %s", got, boundary)
			}
			if got := shardRecords(m, 2, 2); got != before+1 {
				t.Fatalf("rebucketed shards carry %d records, want %d", got, before+1)
			}
			for r := 0; r < 2; r++ {
				if h := m.shards(2, r)[0].host; h != 7 {
					t.Fatalf("recomputed shard host = %d, want 7", h)
				}
			}
			first := m.shards(2, 0)[0].records
			if len(first) == 0 || first[0].Key != "0000a" {
				t.Fatalf("reducer 0 missed the recomputed record: %v", first)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, tc.run)
	}
}

// mustGet returns one stored output's records: its shards, bucketed by
// the shuffle's own partitioner, joined in shard order.
func mustGet(t *testing.T, m *mapOutputs, id, mapPart int) []rdd.Pair {
	t.Helper()
	shards, err := m.store.Shards(blockstore.Key{Shuffle: id, MapPart: mapPart}, m.shuffle(id).bucket)
	if err != nil {
		t.Fatal(err)
	}
	var recs []rdd.Pair
	for _, shard := range shards {
		recs = append(recs, shard...)
	}
	return recs
}

// TestMapOutputPanics covers the table's engine-bug guards: each panic
// names the shuffle and, where one is involved, the map partition.
func TestMapOutputPanics(t *testing.T) {
	cases := []struct {
		name string
		want string
		run  func(m *mapOutputs)
	}{
		{"unknown shuffle", "unknown shuffle 99", func(m *mapOutputs) { m.missing(99, nil) }},
		{"map part out of range", "shuffle 1: map partition 5 out of range", func(m *mapOutputs) {
			m.put(1, 5, 0, nil, 0)
		}},
		{"barrier with missing output", "shuffle 1 map 1 missing at the map-stage barrier", func(m *mapOutputs) {
			m.put(1, 0, 0, nil, 0)
			m.barrier(1)
		}},
		{"read before barrier", "shuffle 1 map 0 read before the map-stage barrier", func(m *mapOutputs) {
			m.put(1, 0, 0, []rdd.Pair{rdd.KV("a", 1)}, 10)
			m.put(1, 1, 0, []rdd.Pair{rdd.KV("b", 1)}, 10)
			m.shards(1, 0)
		}},
		{"read missing output", "shuffle 1 map 1 missing", func(m *mapOutputs) {
			m.put(1, 0, 0, []rdd.Pair{rdd.KV("a", 1)}, 10)
			m.put(1, 1, 3, []rdd.Pair{rdd.KV("b", 1)}, 10)
			m.barrier(1)
			m.dropHost(3)
			m.shards(1, 0)
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			m, _ := hashOutputs(2, 2)
			defer func() {
				msg := fmt.Sprint(recover())
				if !strings.Contains(msg, tc.want) {
					t.Fatalf("panic %q, want it to name %q", msg, tc.want)
				}
			}()
			tc.run(m)
		})
	}
}

// Property: bucketing conserves records, and every output's shard modeled
// bytes sum to its modeled bytes.
func TestQuickShardModeledConservation(t *testing.T) {
	f := func(seed int64, mapsRaw, reducesRaw uint8) bool {
		numMaps := int(mapsRaw%5) + 1
		numReduces := int(reducesRaw%7) + 1
		m := newMapOutputs()
		m.register(&rdd.ShuffleSpec{ID: 3, Partitioner: rdd.NewHashPartitioner(numReduces)}, numMaps)
		rng := rand.New(rand.NewSource(seed))
		wantRecords := 0
		wantModeled := make([]float64, numMaps)
		for part := 0; part < numMaps; part++ {
			var recs []rdd.Pair
			for i := 0; i < rng.Intn(40); i++ {
				recs = append(recs, rdd.KV(fmt.Sprintf("k%d", rng.Intn(100)), rng.Intn(10)))
			}
			if len(recs) > 0 {
				wantModeled[part] = float64(rng.Intn(1000))
			}
			m.put(3, part, topology.HostID(rng.Intn(4)), recs, wantModeled[part])
			wantRecords += len(recs)
		}
		m.barrier(3)
		gotModeled := make([]float64, numMaps)
		for r := 0; r < numReduces; r++ {
			for part, sh := range m.shards(3, r) {
				gotModeled[part] += sh.modeled
			}
		}
		for part := range wantModeled {
			if math.Abs(gotModeled[part]-wantModeled[part]) > 1e-6 {
				return false
			}
		}
		return shardRecords(m, 3, numReduces) == wantRecords
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}
