package rdd

import (
	"bytes"
	"errors"
	"strings"
	"testing"
	"unicode/utf8"
)

// Fuzz targets run their seed corpus under `go test` and can be extended
// with `go test -fuzz=Fuzz<Name> ./internal/rdd`.

func FuzzHashPartitionerInRange(f *testing.F) {
	f.Add("", 1)
	f.Add("hello", 8)
	f.Add("ключ", 3)
	f.Add(strings.Repeat("x", 1000), 64)
	f.Fuzz(func(t *testing.T, key string, nRaw int) {
		n := nRaw%128 + 1
		if n <= 0 {
			n += 128
		}
		p := NewHashPartitioner(n)
		got := p.PartitionFor(key)
		if got < 0 || got >= n {
			t.Fatalf("PartitionFor(%q) = %d out of [0,%d)", key, got, n)
		}
		if p.PartitionFor(key) != got {
			t.Fatalf("PartitionFor(%q) not deterministic", key)
		}
	})
}

func FuzzRangePartitionerOrder(f *testing.F) {
	f.Add("a\nb\nc", 3)
	f.Add("z\na\nmm\nq", 2)
	f.Fuzz(func(t *testing.T, raw string, nRaw int) {
		n := nRaw%16 + 1
		if n <= 0 {
			n += 16
		}
		keys := strings.Split(raw, "\n")
		p := NewRangePartitioner(n)
		p.Prepare(keys)
		// Order preservation: for any two keys, shard order must follow
		// key order.
		for i := 0; i < len(keys); i++ {
			for j := i + 1; j < len(keys); j++ {
				a, b := keys[i], keys[j]
				sa, sb := p.PartitionFor(a), p.PartitionFor(b)
				if a < b && sa > sb {
					t.Fatalf("keys %q<%q but shards %d>%d", a, b, sa, sb)
				}
				if a > b && sa < sb {
					t.Fatalf("keys %q>%q but shards %d<%d", a, b, sa, sb)
				}
			}
		}
	})
}

func FuzzSizeOfNonNegative(f *testing.F) {
	f.Add("key", "value")
	f.Add("", "")
	f.Fuzz(func(t *testing.T, key, val string) {
		if !utf8.ValidString(key) || !utf8.ValidString(val) {
			t.Skip()
		}
		s := SizeOf(KV(key, val))
		if s < float64(len(key)+len(val)) {
			t.Fatalf("SizeOf(%q,%q) = %v smaller than payload", key, val, s)
		}
	})
}

func FuzzSaltUnsaltRoundtrip(f *testing.F) {
	f.Add("hot-key", 4)
	f.Add("", 1)
	f.Add("with|pipe", 7)
	f.Fuzz(func(t *testing.T, key string, nRaw int) {
		if strings.ContainsRune(key, '|') {
			// Keys containing the tag separator are out of contract.
			t.Skip()
		}
		n := nRaw%20 + 1
		if n <= 0 {
			n += 20
		}
		g := NewGraph()
		in := g.Input("in", []InputPartition{{Host: 0, ModeledBytes: 1, Records: []Pair{KV(key, 1)}}})
		round := in.Salt("s", n).Unsalt("u")
		got := CollectLocal(round)
		if len(got) != 1 || got[0].Key != key {
			t.Fatalf("roundtrip of %q through Salt(%d) = %v", key, n, got)
		}
	})
}

// FuzzDecodeRecords feeds arbitrary bytes to the record decoder: it must
// return records or an error wrapping ErrCorrupt, never panic, and any
// records it does return must survive a re-encode unchanged.
func FuzzDecodeRecords(f *testing.F) {
	valid, err := EncodeRecords(codecSamples())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)/2])
	f.Add([]byte{})
	f.Add([]byte{0})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})
	f.Fuzz(func(t *testing.T, data []byte) {
		records, err := DecodeRecords(data)
		if err != nil {
			if !errors.Is(err, ErrCorrupt) {
				t.Fatalf("error %v does not wrap ErrCorrupt", err)
			}
			return
		}
		// The input may use non-minimal varints, so compare canonical
		// re-encodings rather than bytes against data.
		canon, err := EncodeRecords(records)
		if err != nil {
			t.Fatalf("decoded records do not re-encode: %v", err)
		}
		again, err := DecodeRecords(canon)
		if err != nil {
			t.Fatalf("re-encoding does not decode: %v", err)
		}
		if twice, _ := EncodeRecords(again); !bytes.Equal(twice, canon) {
			t.Fatal("re-encoding is not stable")
		}
	})
}
