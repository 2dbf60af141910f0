package rdd

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
)

func TestReduceAggregateSortKeysIsStable(t *testing.T) {
	in := []Pair{KV("b", 1), KV("a", 2), KV("b", 3), KV("a", 4), KV("c", 5), KV("a", 6)}
	got := ReduceAggregate(&ShuffleSpec{SortKeys: true}, in)
	want := []Pair{KV("a", 2), KV("a", 4), KV("a", 6), KV("b", 1), KV("b", 3), KV("c", 5)}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("sorted = %v, want %v", got, want)
	}
	if in[0].Key != "b" {
		t.Fatal("ReduceAggregate sorted its input in place")
	}
	if got := ReduceAggregate(&ShuffleSpec{}, in); !reflect.DeepEqual(got, in) {
		t.Fatalf("pass-through reordered records: %v", got)
	}
}

func TestCombineAndGroupEmitSortedUniqueKeys(t *testing.T) {
	var in []Pair
	for i := 0; i < 500; i++ {
		in = append(in, KV(fmt.Sprintf("k%02d", i*7%31), 1))
	}
	sum := func(a, b Value) Value { return a.(int) + b.(int) }
	for name, spec := range map[string]*ShuffleSpec{
		"combine":        {Combine: sum},
		"combine-sorted": {Combine: sum, SortKeys: true},
		"group":          {GroupAll: true},
	} {
		out := ReduceAggregate(spec, in)
		if !slices.IsSortedFunc(out, compareKeys) {
			t.Fatalf("%s: output not key-sorted", name)
		}
		total := 0
		for i, p := range out {
			if i > 0 && out[i-1].Key == p.Key {
				t.Fatalf("%s: key %q repeated", name, p.Key)
			}
			if spec.GroupAll {
				total += len(p.Value.([]Value))
			} else {
				total += p.Value.(int)
			}
		}
		if total != len(in) {
			t.Fatalf("%s: output accounts for %d of %d records", name, total, len(in))
		}
	}
}

func TestFlatMapAllocatesOutputOnce(t *testing.T) {
	g := NewGraph()
	words := []Pair{KV("w", 1), KV("w", 2), KV("w", 3)}
	in := make([]Pair, 1000)
	fm := g.Input("in", []InputPartition{{Records: in}}).
		FlatMap("split", func(Pair) []Pair { return words })
	out := fm.Narrow(0, in)
	if len(out) != 3*len(in) || out[4] != words[1] {
		t.Fatalf("FlatMap emitted %d records", len(out))
	}
	// One slice of per-record results, one output slice.
	if allocs := testing.AllocsPerRun(10, func() { fm.Narrow(0, in) }); allocs > 2 {
		t.Fatalf("FlatMap made %v allocations per partition, want 2", allocs)
	}
	none := g.Input("empty", []InputPartition{{Records: in}}).
		FlatMap("none", func(Pair) []Pair { return nil })
	if out := none.Narrow(0, in); out != nil {
		t.Fatalf("FlatMap of empty results = %v, want nil", out)
	}
}

// TestQuickSortKeysMatchesStableSort checks the SortKeys path against
// slices.SortStableFunc record for record on random inputs built to hit
// the prefix sort's edge cases: heavy duplicates, keys sharing their first
// eight bytes, keys shorter than eight bytes, trailing zero bytes ("ab" vs
// "ab\x00"), the empty key and bytes at or above 0x80.
func TestQuickSortKeysMatchesStableSort(t *testing.T) {
	fixed := []string{"", "a", "ab", "ab\x00", "ab\x00\x00", "ab\x01", "\x00", "\xff", "\x80abc",
		"prefix00", "prefix00\x00", "prefix00a", "prefix00b", "prefix01", "prefix0", "\xff\xff\xff\xff\xff\xff\xff\xff\xff"}
	alphabet := []byte{0, 1, 'a', 'b', 0x7f, 0x80, 0xfe, 0xff}
	spec := &ShuffleSpec{SortKeys: true}
	f := func(seed int64, n uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		in := make([]Pair, int(n)%600)
		for i := range in {
			var key string
			switch rng.Intn(4) {
			case 0: // heavy duplicates
				key = fixed[rng.Intn(len(fixed))]
			case 1: // a shared 8-byte prefix, random tail
				key = "prefix00" + randKey(rng, alphabet, rng.Intn(4))
			default: // random, 0..11 bytes
				key = randKey(rng, alphabet, rng.Intn(12))
			}
			in[i] = KV(key, i)
		}
		want := slices.Clone(in)
		slices.SortStableFunc(want, compareKeys)
		got := ReduceAggregate(spec, in)
		if !reflect.DeepEqual(got, want) {
			t.Logf("seed %d, %d records: SortKeys output differs from SortStableFunc", seed, len(in))
			return false
		}
		for i, p := range in {
			if p.Value != i {
				t.Logf("seed %d: input modified at %d", seed, i)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func randKey(rng *rand.Rand, alphabet []byte, n int) string {
	b := make([]byte, n)
	for i := range b {
		b[i] = alphabet[rng.Intn(len(alphabet))]
	}
	return string(b)
}

// TestKeyPrefixOrdersAsKeys checks a < b never packs to a larger prefix,
// and that keys equal in their zero-padded first eight bytes tie.
func TestKeyPrefixOrdersAsKeys(t *testing.T) {
	for _, tc := range []struct {
		a, b string
		tie  bool
	}{
		{"", "\x00", true}, {"ab", "ab\x00", true}, {"abcdefgh", "abcdefgh\x00", true},
		{"abcdefgh0", "abcdefgh1", true}, {"ab\x00", "ab\x01", false}, {"\x7f", "\x80", false},
		{"a\xff", "b", false}, {"abcdefgh", "abcdefgi", false}, {"", "a", false},
	} {
		pa, pb := keyPrefix(tc.a), keyPrefix(tc.b)
		if (pa == pb) != tc.tie || pa > pb {
			t.Errorf("keyPrefix(%q) = %#x, keyPrefix(%q) = %#x, want tie = %v", tc.a, pa, tc.b, pb, tc.tie)
		}
	}
}

// TestBucketRecordsSizesShardsExactly checks every shard is allocated at
// its final size: one allocation for the shard list, one scratch array,
// and one per non-empty shard.
func TestBucketRecordsSizesShardsExactly(t *testing.T) {
	spec := &ShuffleSpec{Partitioner: NewHashPartitioner(8)}
	in := make([]Pair, 5000)
	for i := range in {
		in[i] = KV(fmt.Sprintf("key-%d", i), i)
	}
	shards := BucketRecords(spec, in)
	total := 0
	for i, shard := range shards {
		if len(shard) != cap(shard) {
			t.Errorf("shard %d: len %d, cap %d", i, len(shard), cap(shard))
		}
		for _, p := range shard {
			if spec.Partitioner.PartitionFor(p.Key) != i {
				t.Fatalf("record %q bucketed into shard %d", p.Key, i)
			}
		}
		total += len(shard)
	}
	if total != len(in) {
		t.Fatalf("shards hold %d of %d records", total, len(in))
	}
	bound := float64(spec.Partitioner.NumPartitions() + 2)
	if allocs := testing.AllocsPerRun(20, func() { BucketRecords(spec, in) }); allocs > bound {
		t.Fatalf("BucketRecords made %v allocations, want at most %v", allocs, bound)
	}
	if got := BucketRecords(spec, nil); len(got) != 8 || got[0] != nil {
		t.Fatalf("BucketRecords(nil) = %v", got)
	}
}
