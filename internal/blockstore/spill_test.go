package blockstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"wanshuffle/internal/rdd"
)

// spillSamples spans the record codec's value types, nil and empty slices
// apart, as an output a workload might store.
func spillSamples() []rdd.Pair {
	return []rdd.Pair{
		rdd.KV("k000", nil),
		rdd.KV("k001", "word"),
		rdd.KV("k002", 7),
		rdd.KV("k003", 0.5),
		rdd.KV("k004", true),
		rdd.KV("k005", []byte(nil)),
		rdd.KV("k006", []byte{}),
		rdd.KV("k007", []rdd.Value{"a", 1, nil}),
		rdd.KV("k008", []string{}),
		rdd.KV("k009", []float64(nil)),
		rdd.KV("k010", rdd.Tagged{Side: 1, V: []rdd.Value{}}),
		rdd.KV("k011", [2][]rdd.Value{nil, {"b"}}),
	}
}

// spilledStore returns a store holding samples under key, spilled to disk
// in flat or bucketed form.
func spilledStore(t testing.TB, key Key, sharded bool) (*SpillStore, *spillEntry) {
	t.Helper()
	s, err := NewSpillStore(SpillConfig{MemoryBudget: 1, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	out := Output{Records: spillSamples()}
	if sharded {
		out = Output{Shards: [][]rdd.Pair{spillSamples()[:5], nil, spillSamples()[5:]}}
	}
	if _, _, err := s.Put(key, out); err != nil {
		t.Fatal(err)
	}
	// Storing a second output pushes the first one out of the budget.
	if _, _, err := s.Put(Key{Shuffle: key.Shuffle + 1}, Output{Records: records(1, "other")}); err != nil {
		t.Fatal(err)
	}
	e := s.outputs[key]
	if !e.spilled {
		t.Fatal("output did not spill under a 1-byte budget")
	}
	return s, e
}

func TestSpillRoundTripsEveryValueType(t *testing.T) {
	key := Key{Shuffle: 3, MapPart: 1}
	s, e := spilledStore(t, key, false)
	if filepath.Ext(e.path) != ".rec" {
		t.Fatalf("spill file %s, want a .rec file", e.path)
	}
	got, err := flatView(s, key)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, spillSamples()) {
		t.Fatalf("reloaded records diverge:\n got %#v\nwant %#v", got, spillSamples())
	}

	s, _ = spilledStore(t, key, true)
	shards, err := s.Shards(key, modBucket(1))
	if err != nil {
		t.Fatal(err)
	}
	want := [][]rdd.Pair{spillSamples()[:5], nil, spillSamples()[5:]}
	if !reflect.DeepEqual(shards, want) {
		t.Fatalf("reloaded shards diverge:\n got %#v\nwant %#v", shards, want)
	}
}

func TestSpillRejectsUnsupportedValues(t *testing.T) {
	s, err := NewSpillStore(SpillConfig{MemoryBudget: 1, Dir: t.TempDir()}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	bad := Key{Shuffle: 0, MapPart: 0}
	if _, _, err := s.Put(bad, Output{Records: []rdd.Pair{rdd.KV("k", int64(1))}}); err != nil {
		t.Fatal(err)
	}
	_, _, err = s.Put(Key{Shuffle: 0, MapPart: 1}, Output{Records: records(1, "ok")})
	if err == nil || !strings.Contains(err.Error(), "int64") {
		t.Fatalf("spilling an int64 value: err = %v, want one naming int64", err)
	}
	// The output that failed to spill stays resident and readable.
	if got, err := flatView(s, bad); err != nil || len(got) != 1 {
		t.Fatalf("read after failed spill = (%v, %v)", got, err)
	}
}

// FuzzSpillReload overwrites a spilled output's file with arbitrary bytes
// and reads it back: the read must return the decoded records or an error
// wrapping rdd.ErrCorrupt, never panic.
func FuzzSpillReload(f *testing.F) {
	flat, err := encodeSpill(spillSamples(), nil)
	if err != nil {
		f.Fatal(err)
	}
	sharded, err := encodeSpill(nil, [][]rdd.Pair{spillSamples(), nil})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(flat)
	f.Add(sharded)
	f.Add(flat[:len(flat)-1])
	f.Add([]byte{})
	f.Add([]byte{spillSharded, 0xff, 0xff, 0x7f})
	key := Key{Shuffle: 1, MapPart: 2}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, e := spilledStore(t, key, false)
		if err := os.WriteFile(e.path, data, 0o600); err != nil {
			t.Fatal(err)
		}
		got, err := flatView(s, key)
		if err != nil {
			if !errors.Is(err, rdd.ErrCorrupt) {
				t.Fatalf("error %v does not wrap rdd.ErrCorrupt", err)
			}
			return
		}
		// A successful reload must hold exactly what the file encodes;
		// encodings compare NaN values bit for bit.
		want, shards, _ := decodeSpill(data)
		if shards != nil {
			want = concat(shards)
		}
		wantEnc, _ := rdd.EncodeRecords(want)
		gotEnc, _ := rdd.EncodeRecords(got)
		if !bytes.Equal(gotEnc, wantEnc) {
			t.Fatal("reloaded records differ from the file's encoding")
		}
	})
}
