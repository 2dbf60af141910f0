package rdd

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
)

// The record codec is the one binary encoding of []Pair that crosses a
// process boundary: the live cluster's chunk frames and the block store's
// spill files both carry it. It covers the closed Value set below and
// rejects anything else with an error naming the type, so a workload that
// stores an unsupported value fails loudly instead of shipping garbage.
//
// Layout: a uvarint record count, then per record a uvarint key length,
// the key bytes, and a tagged value. Slice lengths are stored plus one so
// that a nil slice (0) and an empty one (1) survive the round trip.

// ErrCorrupt is wrapped by every decoding error: truncated input, an
// unknown value tag, a length that overruns the input, or trailing bytes.
var ErrCorrupt = errors.New("rdd: corrupt record encoding")

// Value tags of the record codec.
const (
	tagNil byte = iota
	tagString
	tagInt
	tagFloat64
	tagFalse
	tagTrue
	tagBytes
	tagValues
	tagStrings
	tagFloat64s
	tagTagged
	tagCoGrouped
)

// maxNesting bounds how deeply []Value, Tagged and [2][]Value may nest, so
// neither a cyclic value nor a crafted input can exhaust the stack.
const maxNesting = 256

// EncodedSize returns the exact length of EncodeRecords(records), or an
// error naming the first value type the codec does not support.
func EncodedSize(records []Pair) (int, error) {
	n := uvarintLen(uint64(len(records)))
	for i := range records {
		vn, err := valueLen(records[i].Value, 0)
		if err != nil {
			return 0, fmt.Errorf("rdd: encoding record %q: %w", records[i].Key, err)
		}
		n += uvarintLen(uint64(len(records[i].Key))) + len(records[i].Key) + vn
	}
	return n, nil
}

// AppendRecords appends the encoding of records to dst. Callers that size
// dst with EncodedSize first get exactly one allocation.
func AppendRecords(dst []byte, records []Pair) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(records)))
	for i := range records {
		dst = appendString(dst, records[i].Key)
		var err error
		if dst, err = appendValue(dst, records[i].Value, 0); err != nil {
			return nil, fmt.Errorf("rdd: encoding record %q: %w", records[i].Key, err)
		}
	}
	return dst, nil
}

// EncodeRecords returns the encoding of records in an exactly sized
// buffer.
func EncodeRecords(records []Pair) ([]byte, error) {
	n, err := EncodedSize(records)
	if err != nil {
		return nil, err
	}
	return AppendRecords(make([]byte, 0, n), records)
}

// DecodeRecords decodes one EncodeRecords encoding that must span all of
// data. Keys and string values share one copy of data, so they stay valid
// after the caller reuses it, and any one of them keeps that whole copy
// alive. An empty record list decodes as nil.
func DecodeRecords(data []byte) ([]Pair, error) {
	d := decoder{s: string(data)}
	records := d.records()
	if d.err == nil && d.off != len(d.s) {
		d.fail("%d trailing bytes", len(d.s)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return records, nil
}

// ShardsSize, AppendShards and DecodeShards extend the codec to a list of
// record lists (per-reduce shards): a uvarint shard count, then each
// shard's record encoding back to back.

// ShardsSize returns the exact encoded length of shards.
func ShardsSize(shards [][]Pair) (int, error) {
	n := uvarintLen(uint64(len(shards)))
	for _, shard := range shards {
		sn, err := EncodedSize(shard)
		if err != nil {
			return 0, err
		}
		n += sn
	}
	return n, nil
}

// AppendShards appends the encoding of shards to dst.
func AppendShards(dst []byte, shards [][]Pair) ([]byte, error) {
	dst = binary.AppendUvarint(dst, uint64(len(shards)))
	for _, shard := range shards {
		var err error
		if dst, err = AppendRecords(dst, shard); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

// DecodeShards decodes one AppendShards encoding that must span all of
// data. The result is never nil; empty shards decode as nil.
func DecodeShards(data []byte) ([][]Pair, error) {
	d := decoder{s: string(data)}
	// Every shard takes at least its one-byte record count.
	n := d.count(1)
	shards := make([][]Pair, n)
	for i := range shards {
		shards[i] = d.records()
	}
	if d.err == nil && d.off != len(d.s) {
		d.fail("%d trailing bytes", len(d.s)-d.off)
	}
	if d.err != nil {
		return nil, d.err
	}
	return shards, nil
}

func uvarintLen(x uint64) int {
	n := 1
	for x >= 0x80 {
		x >>= 7
		n++
	}
	return n
}

func stringLen(s string) int { return uvarintLen(uint64(len(s))) + len(s) }

// sliceLenLen is the size of a slice's length prefix (length plus one).
func sliceLenLen(n int) int { return uvarintLen(uint64(n) + 1) }

// valueLen returns the encoded size of v, tag included.
func valueLen(v Value, depth int) (int, error) {
	switch x := v.(type) {
	case nil, bool:
		return 1, nil
	case string:
		return 1 + stringLen(x), nil
	case int:
		return 1 + uvarintLen(zigzag(int64(x))), nil
	case float64:
		return 1 + 8, nil
	case []byte:
		return 1 + sliceLenLen(len(x)) + len(x), nil
	case []string:
		n := 1 + sliceLenLen(len(x))
		for _, s := range x {
			n += stringLen(s)
		}
		return n, nil
	case []float64:
		return 1 + sliceLenLen(len(x)) + 8*len(x), nil
	}
	if depth >= maxNesting {
		return 0, fmt.Errorf("values nest deeper than %d", maxNesting)
	}
	switch x := v.(type) {
	case []Value:
		n, err := valuesLen(x, depth+1)
		return 1 + n, err
	case Tagged:
		n, err := valueLen(x.V, depth+1)
		return 1 + uvarintLen(zigzag(int64(x.Side))) + n, err
	case [2][]Value:
		n0, err := valuesLen(x[0], depth+1)
		if err != nil {
			return 0, err
		}
		n1, err := valuesLen(x[1], depth+1)
		return 1 + n0 + n1, err
	default:
		return 0, fmt.Errorf("unsupported value type %T", v)
	}
}

func valuesLen(vs []Value, depth int) (int, error) {
	n := sliceLenLen(len(vs))
	for _, e := range vs {
		en, err := valueLen(e, depth)
		if err != nil {
			return 0, err
		}
		n += en
	}
	return n, nil
}

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendSliceLen writes a slice's length prefix: 0 for nil, else len+1.
func appendSliceLen(dst []byte, n int, isNil bool) []byte {
	if isNil {
		return append(dst, 0)
	}
	return binary.AppendUvarint(dst, uint64(n)+1)
}

func appendValue(dst []byte, v Value, depth int) ([]byte, error) {
	switch x := v.(type) {
	case nil:
		return append(dst, tagNil), nil
	case string:
		return appendString(append(dst, tagString), x), nil
	case int:
		return binary.AppendUvarint(append(dst, tagInt), zigzag(int64(x))), nil
	case float64:
		return binary.LittleEndian.AppendUint64(append(dst, tagFloat64), math.Float64bits(x)), nil
	case bool:
		if x {
			return append(dst, tagTrue), nil
		}
		return append(dst, tagFalse), nil
	case []byte:
		dst = appendSliceLen(append(dst, tagBytes), len(x), x == nil)
		return append(dst, x...), nil
	case []string:
		dst = appendSliceLen(append(dst, tagStrings), len(x), x == nil)
		for _, s := range x {
			dst = appendString(dst, s)
		}
		return dst, nil
	case []float64:
		dst = appendSliceLen(append(dst, tagFloat64s), len(x), x == nil)
		for _, f := range x {
			dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
		}
		return dst, nil
	}
	if depth >= maxNesting {
		return nil, fmt.Errorf("values nest deeper than %d", maxNesting)
	}
	switch x := v.(type) {
	case []Value:
		return appendValues(append(dst, tagValues), x, depth+1)
	case Tagged:
		dst = binary.AppendUvarint(append(dst, tagTagged), zigzag(int64(x.Side)))
		return appendValue(dst, x.V, depth+1)
	case [2][]Value:
		dst, err := appendValues(append(dst, tagCoGrouped), x[0], depth+1)
		if err != nil {
			return nil, err
		}
		return appendValues(dst, x[1], depth+1)
	default:
		return nil, fmt.Errorf("unsupported value type %T", v)
	}
}

func appendValues(dst []byte, vs []Value, depth int) ([]byte, error) {
	dst = appendSliceLen(dst, len(vs), vs == nil)
	for _, e := range vs {
		var err error
		if dst, err = appendValue(dst, e, depth); err != nil {
			return nil, err
		}
	}
	return dst, nil
}

func zigzag(x int64) uint64 { return uint64(x<<1) ^ uint64(x>>63) }

func unzigzag(u uint64) int64 { return int64(u>>1) ^ -int64(u&1) }

// decoder reads the codec from one immutable string, so decoded keys and
// string values are substrings of it rather than copies. The first error
// sticks; later reads return zero values.
type decoder struct {
	s   string
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w at byte %d: %s", ErrCorrupt, d.off, fmt.Sprintf(format, args...))
	}
}

func (d *decoder) remaining() int { return len(d.s) - d.off }

func (d *decoder) tag() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.s) {
		d.fail("truncated")
		return 0
	}
	b := d.s[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	var x uint64
	for shift := uint(0); shift < 64; shift += 7 {
		if d.off >= len(d.s) {
			d.fail("truncated varint")
			return 0
		}
		b := d.s[d.off]
		d.off++
		if b < 0x80 {
			if shift == 63 && b > 1 {
				break
			}
			return x | uint64(b)<<shift
		}
		x |= uint64(b&0x7f) << shift
	}
	d.fail("varint overflows 64 bits")
	return 0
}

// count reads an element count and bounds it by the bytes left, given
// that every element takes at least minSize bytes, so a bogus prefix can
// never trigger a large allocation.
func (d *decoder) count(minSize int) int {
	n := d.uvarint()
	if d.err == nil && n > uint64(d.remaining()/minSize) {
		d.fail("count %d exceeds the %d bytes left", n, d.remaining())
		return 0
	}
	return int(n)
}

// sliceCount reads a nil-aware slice length prefix; ok is false for nil.
func (d *decoder) sliceCount(minSize int) (n int, ok bool) {
	u := d.uvarint()
	if d.err != nil || u == 0 {
		return 0, false
	}
	if u-1 > uint64(d.remaining()/minSize) {
		d.fail("length %d exceeds the %d bytes left", u-1, d.remaining())
		return 0, false
	}
	return int(u - 1), true
}

func (d *decoder) str() string {
	n := d.count(1)
	if d.err != nil {
		return ""
	}
	s := d.s[d.off : d.off+n]
	d.off += n
	return s
}

func (d *decoder) f64() float64 {
	if d.err != nil {
		return 0
	}
	if d.remaining() < 8 {
		d.fail("truncated float64")
		return 0
	}
	bits := uint64(d.s[d.off]) | uint64(d.s[d.off+1])<<8 | uint64(d.s[d.off+2])<<16 |
		uint64(d.s[d.off+3])<<24 | uint64(d.s[d.off+4])<<32 | uint64(d.s[d.off+5])<<40 |
		uint64(d.s[d.off+6])<<48 | uint64(d.s[d.off+7])<<56
	d.off += 8
	return math.Float64frombits(bits)
}

func (d *decoder) records() []Pair {
	// Every record takes at least a key length byte and a value tag.
	n := d.count(2)
	if d.err != nil || n == 0 {
		return nil
	}
	out := make([]Pair, n)
	for i := range out {
		out[i].Key = d.str()
		out[i].Value = d.value(0)
		if d.err != nil {
			return nil
		}
	}
	return out
}

func (d *decoder) value(depth int) Value {
	switch tag := d.tag(); tag {
	case tagNil:
		return nil
	case tagString:
		return d.str()
	case tagInt:
		return int(unzigzag(d.uvarint()))
	case tagFloat64:
		return d.f64()
	case tagFalse:
		return false
	case tagTrue:
		return true
	case tagBytes:
		n, ok := d.sliceCount(1)
		if !ok {
			return []byte(nil)
		}
		b := []byte(d.s[d.off : d.off+n])
		d.off += n
		return b
	case tagStrings:
		n, ok := d.sliceCount(1)
		if !ok {
			return []string(nil)
		}
		ss := make([]string, n)
		for i := range ss {
			ss[i] = d.str()
		}
		return ss
	case tagFloat64s:
		n, ok := d.sliceCount(8)
		if !ok {
			return []float64(nil)
		}
		fs := make([]float64, n)
		for i := range fs {
			fs[i] = d.f64()
		}
		return fs
	case tagValues, tagTagged, tagCoGrouped:
		if depth >= maxNesting {
			d.fail("values nest deeper than %d", maxNesting)
			return nil
		}
		switch tag {
		case tagValues:
			return d.values(depth + 1)
		case tagTagged:
			side := int(unzigzag(d.uvarint()))
			return Tagged{Side: side, V: d.value(depth + 1)}
		default:
			return [2][]Value{d.values(depth + 1), d.values(depth + 1)}
		}
	default:
		d.fail("unknown value tag %d", tag)
		return nil
	}
}

func (d *decoder) values(depth int) []Value {
	n, ok := d.sliceCount(1)
	if !ok {
		return nil
	}
	vs := make([]Value, n)
	for i := range vs {
		vs[i] = d.value(depth)
		if d.err != nil {
			return nil
		}
	}
	return vs
}
