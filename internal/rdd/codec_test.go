package rdd

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// codecSamples covers every type of the codec's closed Value set, nil
// and empty slices apart, and the nesting the lineage operators produce
// (GroupByKey's []Value, CoGroup's Tagged and [2][]Value).
func codecSamples() []Pair {
	return []Pair{
		KV("nil", nil),
		KV("", "empty key"),
		KV("string", "hello, мир"),
		KV("string-empty", ""),
		KV("int", 42),
		KV("int-neg", -7),
		KV("int-min", math.MinInt),
		KV("int-max", math.MaxInt),
		KV("float", 3.25),
		KV("float-neg-zero", math.Copysign(0, -1)),
		KV("float-inf", math.Inf(-1)),
		KV("bool-true", true),
		KV("bool-false", false),
		KV("bytes", []byte{0, 1, 255}),
		KV("bytes-empty", []byte{}),
		KV("bytes-nil", []byte(nil)),
		KV("values", []Value{"a", 1, 2.5, true, nil}),
		KV("values-empty", []Value{}),
		KV("values-nil", []Value(nil)),
		KV("strings", []string{"x", "", "yz"}),
		KV("strings-empty", []string{}),
		KV("strings-nil", []string(nil)),
		KV("floats", []float64{1, -2.5, math.MaxFloat64}),
		KV("floats-empty", []float64{}),
		KV("floats-nil", []float64(nil)),
		KV("tagged", Tagged{Side: 1, V: "right"}),
		KV("tagged-nil", Tagged{Side: 0, V: nil}),
		KV("tagged-nested", Tagged{Side: -3, V: []Value{[]string{"deep"}, Tagged{Side: 2, V: 9}}}),
		KV("cogrouped", [2][]Value{{"l1", "l2"}, {1.5}}),
		KV("cogrouped-sides", [2][]Value{nil, {}}),
		KV("nested", []Value{[]Value{[]Value{}, []byte(nil)}, [2][]Value{{[]float64{0.5}}, nil}}),
	}
}

func TestRecordCodecRoundTrip(t *testing.T) {
	in := codecSamples()
	data, err := EncodeRecords(in)
	if err != nil {
		t.Fatal(err)
	}
	if n, _ := EncodedSize(in); n != len(data) || cap(data) != len(data) {
		t.Fatalf("EncodedSize = %d, encoding len %d cap %d", n, len(data), cap(data))
	}
	out, err := DecodeRecords(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatalf("round trip diverges:\n got %#v\nwant %#v", out, in)
	}
	// The parity and EvalLocal equality tests compare %v renderings.
	if fmt.Sprint(out) != fmt.Sprint(in) {
		t.Fatal("round trip changes the fmt rendering of the records")
	}
	// Decoded strings must not alias the caller's buffer.
	for i := range data {
		data[i] = 0xff
	}
	if !reflect.DeepEqual(out, in) {
		t.Fatal("decoded records alias the input buffer")
	}
}

func TestRecordCodecEmpty(t *testing.T) {
	for _, in := range [][]Pair{nil, {}} {
		data, err := EncodeRecords(in)
		if err != nil {
			t.Fatal(err)
		}
		out, err := DecodeRecords(data)
		if err != nil || out != nil {
			t.Fatalf("decoding %v = %v, %v; want nil", in, out, err)
		}
	}
}

func TestShardsCodecRoundTrip(t *testing.T) {
	samples := codecSamples()
	for _, in := range [][][]Pair{
		{},
		{nil},
		{samples[:3], nil, samples[3:]},
	} {
		n, err := ShardsSize(in)
		if err != nil {
			t.Fatal(err)
		}
		data, err := AppendShards(make([]byte, 0, n), in)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) != n {
			t.Fatalf("ShardsSize = %d, encoding %d", n, len(data))
		}
		out, err := DecodeShards(data)
		if err != nil {
			t.Fatal(err)
		}
		if out == nil || !reflect.DeepEqual(out, in) {
			t.Fatalf("round trip of %d shards diverges: %#v", len(in), out)
		}
	}
}

func TestRecordCodecRejectsUnsupportedTypes(t *testing.T) {
	type custom struct{ X int }
	for _, v := range []Value{
		int64(1),
		float32(1),
		custom{1},
		map[string]int{},
		[]Value{"ok", uint8(3)},
		Tagged{V: &custom{}},
		[2][]Value{nil, {struct{}{}}},
	} {
		records := []Pair{KV("ok", 1), KV("bad", v)}
		if _, err := EncodeRecords(records); err == nil {
			t.Fatalf("EncodeRecords accepted %T", v)
		} else if !strings.Contains(err.Error(), "unsupported value type") {
			t.Fatalf("error for %T does not name the type: %v", v, err)
		}
		if _, err := AppendRecords(nil, records); err == nil {
			t.Fatalf("AppendRecords accepted %T", v)
		}
		if _, err := ShardsSize([][]Pair{records}); err == nil {
			t.Fatalf("ShardsSize accepted %T", v)
		}
	}
	if _, err := EncodeRecords([]Pair{KV("k", int64(1))}); !strings.Contains(err.Error(), "int64") {
		t.Fatalf("error does not name int64: %v", err)
	}
}

func TestRecordCodecRejectsCyclicValues(t *testing.T) {
	cyc := []Value{nil}
	cyc[0] = cyc
	if _, err := EncodeRecords([]Pair{KV("cycle", cyc)}); err == nil {
		t.Fatal("cyclic value encoded")
	}
}

func TestDecodeRecordsCorruptInput(t *testing.T) {
	valid, err := EncodeRecords(codecSamples())
	if err != nil {
		t.Fatal(err)
	}
	deep := []byte{1, 0}
	for i := 0; i <= maxNesting; i++ {
		deep = append(deep, tagValues, 2)
	}
	deep = append(deep, tagNil)
	for name, data := range map[string][]byte{
		"empty":           {},
		"trailing":        append(append([]byte{}, valid...), 0),
		"unknown-tag":     {1, 1, 'k', 200},
		"huge-count":      {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01},
		"varint-overflow": {0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0x02},
		"huge-key":        {1, 0xff, 0xff, 0xff, 0xff, 0x0f},
		"huge-slice":      {1, 0, tagFloat64s, 0xff, 0xff, 0x03},
		"short-float":     {1, 0, tagFloat64, 1, 2, 3},
		"too-deep":        deep,
	} {
		if _, err := DecodeRecords(data); !errors.Is(err, ErrCorrupt) {
			t.Errorf("%s: err = %v, want ErrCorrupt", name, err)
		}
	}
	// Every strict prefix of a valid encoding is truncated.
	for n := 0; n < len(valid); n++ {
		if _, err := DecodeRecords(valid[:n]); !errors.Is(err, ErrCorrupt) {
			t.Fatalf("prefix of %d bytes: err = %v, want ErrCorrupt", n, err)
		}
	}
	if _, err := DecodeShards([]byte{0xff, 0x7f}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("DecodeShards huge count: err = %v, want ErrCorrupt", err)
	}
}
