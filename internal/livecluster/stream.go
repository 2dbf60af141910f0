package livecluster

import (
	"bytes"
	"compress/flate"
	"compress/gzip"
	"fmt"
	"io"

	"wanshuffle/internal/rdd"
)

// Chunk framing for the streaming data plane. A push or fetch moves its
// records as a sequence of bounded-size chunk frames over one (or, for
// pushes, several parallel) pooled connections, ended by a terminal frame.
// Each chunk carries its records in the rdd record codec as one opaque
// payload, optionally compressed; chunks that would not shrink ship raw,
// so compression never inflates the wire.

// Compression codec names accepted by Config.Compression.
const (
	CodecNone  = ""
	CodecGzip  = "gzip"
	CodecFlate = "flate"
)

// validCodec reports whether name is a supported compression codec,
// normalizing the "none" spelling to the empty codec.
func validCodec(name string) (string, bool) {
	switch name {
	case CodecNone, "none":
		return CodecNone, true
	case CodecGzip, CodecFlate:
		return name, true
	default:
		return "", false
	}
}

// chunk is one frame of a push or fetch stream. Payload is the rdd record
// encoding of the frame's records, compressed with Codec when that made
// it smaller. A frame with Last set carries no records and terminates the
// stream; on fetch streams it may carry a server-side error.
type chunk struct {
	// Seq orders the chunk within its logical transfer, so parallel push
	// streams reassemble deterministically.
	Seq     int
	Payload []byte
	Codec   string
	// RawLen is the size of the uncompressed encoding when Payload is
	// compressed; it feeds the bytes_raw_total accounting.
	RawLen int64
	Last   bool
	Err    string
}

// savings returns how many payload bytes compression saved on this chunk
// (zero for raw chunks), the delta between raw and wire accounting.
func (ch *chunk) savings() int64 {
	if ch.Codec == CodecNone || ch.RawLen == 0 {
		return 0
	}
	if s := ch.RawLen - int64(len(ch.Payload)); s > 0 {
		return s
	}
	return 0
}

// makeChunk builds one data frame for records, compressing with codec when
// that shrinks the encoding.
func makeChunk(seq int, records []rdd.Pair, codec string) (*chunk, error) {
	raw, err := rdd.EncodeRecords(records)
	if err != nil {
		return nil, fmt.Errorf("livecluster: encoding chunk %d: %w", seq, err)
	}
	ch := &chunk{Seq: seq, Payload: raw}
	if codec == CodecNone {
		return ch, nil
	}
	comp, err := compress(codec, raw)
	if err != nil {
		return nil, err
	}
	if len(comp) >= len(raw) {
		// Compression would inflate this chunk (tiny or incompressible
		// data); ship it raw so bytes_wire_total never exceeds raw.
		return ch, nil
	}
	ch.Payload = comp
	ch.Codec = codec
	ch.RawLen = int64(len(raw))
	return ch, nil
}

// decode returns the chunk's records, decompressing as needed.
func (ch *chunk) decode() ([]rdd.Pair, error) {
	raw := ch.Payload
	if ch.Codec != CodecNone {
		var err error
		if raw, err = decompress(ch.Codec, ch.Payload); err != nil {
			return nil, err
		}
	}
	records, err := rdd.DecodeRecords(raw)
	if err != nil {
		return nil, fmt.Errorf("livecluster: decoding chunk %d: %w", ch.Seq, err)
	}
	return records, nil
}

func compress(codec string, raw []byte) ([]byte, error) {
	var buf bytes.Buffer
	var w io.WriteCloser
	switch codec {
	case CodecGzip:
		w = gzip.NewWriter(&buf)
	case CodecFlate:
		fw, err := flate.NewWriter(&buf, flate.DefaultCompression)
		if err != nil {
			return nil, fmt.Errorf("livecluster: flate writer: %w", err)
		}
		w = fw
	default:
		return nil, fmt.Errorf("livecluster: unknown codec %q", codec)
	}
	if _, err := w.Write(raw); err != nil {
		return nil, fmt.Errorf("livecluster: compressing chunk: %w", err)
	}
	if err := w.Close(); err != nil {
		return nil, fmt.Errorf("livecluster: compressing chunk: %w", err)
	}
	return buf.Bytes(), nil
}

func decompress(codec string, payload []byte) ([]byte, error) {
	var r io.ReadCloser
	switch codec {
	case CodecGzip:
		gr, err := gzip.NewReader(bytes.NewReader(payload))
		if err != nil {
			return nil, fmt.Errorf("livecluster: gzip chunk: %w", err)
		}
		r = gr
	case CodecFlate:
		r = flate.NewReader(bytes.NewReader(payload))
	default:
		return nil, fmt.Errorf("livecluster: unknown codec %q", codec)
	}
	raw, err := io.ReadAll(r)
	if err != nil {
		_ = r.Close()
		return nil, fmt.Errorf("livecluster: decompressing chunk: %w", err)
	}
	return raw, r.Close()
}

// splitRecords cuts records into consecutive chunks of at most size
// records each; an empty input yields no chunks.
func splitRecords(records []rdd.Pair, size int) [][]rdd.Pair {
	if size <= 0 {
		size = 1
	}
	var out [][]rdd.Pair
	for start := 0; start < len(records); start += size {
		end := start + size
		if end > len(records) {
			end = len(records)
		}
		out = append(out, records[start:end])
	}
	return out
}
