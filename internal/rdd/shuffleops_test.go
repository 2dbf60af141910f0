package rdd

import (
	"fmt"
	"reflect"
	"slices"
	"testing"
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
