// Compact sample-batch encoding (v2): an optional wire format that halves
// feature bytes by shipping them as IEEE 754 half precision (fp16) and
// shrinks the fixed per-sample header with varints.
//
// A v2 batch is flagged by bit 31 of the uint32 count word — the legacy
// (v1) encoder bounds counts at maxBatchCount (1<<24), so the bit is never
// set by old senders and DecodeSampleBatchInto can dispatch on it. Each v2
// entry is a tag byte (entryFP32 or entryFP16), four minimal uvarints (ID,
// Label, Bytes, feature count), then the features: 4-byte fp32 words for
// entryFP32, 2-byte fp16 halves for entryFP16.
//
// Two encoder modes (Encoding):
//
//   - EncodingFP32 emits the legacy v1 bytes, bit for bit — zero adoption
//     risk, no savings.
//   - EncodingFP16Exact quantizes a sample only when every one of its
//     features survives the fp16 round trip bit for bit, and falls back to
//     entryFP32 otherwise — compact where possible, lossless always.
//
// The v2 decoder is strictly canonical: non-minimal varints, unknown tags,
// and entryFP32 entries whose features were all fp16-representable (the
// EncodingFP16Exact encoder would have emitted entryFP16) are rejected.
// Canonicality makes decode→re-encode the identity on valid v2 input,
// which is the round-trip property the fuzz targets pin.
package data

import (
	"encoding/binary"
	"fmt"
	"slices"

	"plshuffle/internal/tensor"
)

// Encoding selects the on-wire feature representation of a sample batch.
type Encoding uint8

const (
	// EncodingFP32 is the legacy v1 format: fixed 28-byte headers and
	// full-precision features. The default.
	EncodingFP32 Encoding = iota
	// EncodingFP16Exact is the v2 format with per-sample fallback to fp32:
	// bitwise lossless for arbitrary data, compact for fp16-representable
	// data.
	EncodingFP16Exact
)

// ParseEncoding maps the flag spellings ("fp32", "fp16exact") to an
// Encoding.
func ParseEncoding(s string) (Encoding, error) {
	switch s {
	case "", "fp32":
		return EncodingFP32, nil
	case "fp16exact":
		return EncodingFP16Exact, nil
	}
	return EncodingFP32, fmt.Errorf("data: unknown sample encoding %q (want fp32 or fp16exact)", s)
}

func (e Encoding) String() string {
	switch e {
	case EncodingFP32:
		return "fp32"
	case EncodingFP16Exact:
		return "fp16exact"
	}
	return fmt.Sprintf("encoding(%d)", uint8(e))
}

// batchV2Flag marks the count word of a v2 batch.
const batchV2Flag = uint32(1) << 31

// v2 entry tags: the feature representation of one sample.
const (
	entryFP32 = byte(0)
	entryFP16 = byte(1)
)

// featuresFP16Representable reports whether every feature survives an fp16
// round trip bit for bit — what EncodingFP16Exact ships as an entryFP16.
// Values beyond fp16 range, f32 subnormals and NaNs whose payload needs the
// low mantissa bits do not. The conversions and the rule are
// tensor.NarrowFP16Exact's; the halves it writes here are thrown away.
func featuresFP16Representable(fs []float32) bool {
	var scratch [2048]byte
	for len(fs) > 0 {
		n := min(len(fs), len(scratch)/2)
		if !tensor.NarrowFP16Exact(scratch[:2*n], fs[:n]) {
			return false
		}
		fs = fs[n:]
	}
	return true
}

// QuantizeFeaturesFP16 rounds every feature to its nearest fp16 value in
// place (round-to-nearest-even). Datasets pre-conditioned this way ship
// every sample compact under EncodingFP16Exact while keeping that mode's
// bitwise-exactness guarantee.
func QuantizeFeaturesFP16(fs []float32) {
	for i, f := range fs {
		fs[i] = tensor.FP16ToF32(tensor.FP16FromF32(f))
	}
}

// appendFP16Exact appends fs as fp16 halves if every feature is
// fp16-representable; if one is not it returns dst as it was. Classifying
// and narrowing are one pass: a representable sample is never looked at
// twice.
func appendFP16Exact(dst []byte, fs []float32) ([]byte, bool) {
	base := len(dst)
	dst = slices.Grow(dst, 2*len(fs))[:base+2*len(fs)]
	if !tensor.NarrowFP16Exact(dst[base:], fs) {
		return dst[:base], false
	}
	return dst, true
}

// AppendSampleBatchEnc appends the batch encoding of samples under enc to
// dst — AppendSampleBatch generalized over the wire format. EncodingFP32
// produces the legacy v1 bytes exactly.
func AppendSampleBatchEnc(dst []byte, samples []Sample, enc Encoding) []byte {
	if enc == EncodingFP32 {
		return AppendSampleBatch(dst, samples)
	}
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(samples))|batchV2Flag)
	for _, s := range samples {
		tagAt := len(dst)
		dst = append(dst, entryFP16)
		dst = binary.AppendUvarint(dst, uint64(s.ID))
		dst = binary.AppendUvarint(dst, uint64(s.Label))
		dst = binary.AppendUvarint(dst, uint64(s.Bytes))
		dst = binary.AppendUvarint(dst, uint64(len(s.Features)))
		// Narrow on the assumption that the sample is representable, and
		// roll the entry back to fp32 if it is not.
		var exact bool
		if dst, exact = appendFP16Exact(dst, s.Features); !exact {
			dst[tagAt] = entryFP32
			dst = appendFeatures(dst, s.Features)
		}
	}
	return dst
}

// WireSizeEnc returns the exact number of bytes the sample occupies in a
// batch encoded under enc (its entry, without the batch's count word),
// without allocating — WireSize generalized over the wire format.
func (s Sample) WireSizeEnc(enc Encoding) int {
	if enc == EncodingFP32 {
		return s.WireSize()
	}
	width := 2
	if !featuresFP16Representable(s.Features) {
		width = 4
	}
	return 1 + uvarintLen(uint64(s.ID)) + uvarintLen(uint64(s.Label)) +
		uvarintLen(uint64(s.Bytes)) + uvarintLen(uint64(len(s.Features))) + width*len(s.Features)
}

func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}

// readUvarint decodes a minimally-encoded uvarint at buf[off], rejecting
// the padded forms binary.Uvarint accepts — canonicality is what makes the
// v2 decode→re-encode round trip exact.
func readUvarint(buf []byte, off int) (uint64, int, error) {
	v, n := binary.Uvarint(buf[off:])
	if n <= 0 {
		return 0, 0, fmt.Errorf("data: truncated or overlong varint")
	}
	if n > 1 && buf[off+n-1] == 0 {
		return 0, 0, fmt.Errorf("data: non-minimal varint")
	}
	return v, off + n, nil
}

// decodeSampleBatchV2 parses a v2 batch (count word bit 31 set), enforcing
// canonical form, with feature arrays from fs. Dispatch lives in
// DecodeSampleBatchInto.
func (fs *FeatureSource) decodeSampleBatchV2(dst []Sample, buf []byte) ([]Sample, error) {
	count := binary.LittleEndian.Uint32(buf) &^ batchV2Flag
	if count > maxBatchCount {
		return dst, fmt.Errorf("data: DecodeSampleBatch: v2 count %d out of range", count)
	}
	// Each entry needs at least a tag byte and four one-byte varints.
	if int(count)*5 > len(buf)-4 {
		return dst, fmt.Errorf("data: DecodeSampleBatch: v2 count %d exceeds %d payload bytes", count, len(buf)-4)
	}
	off := 4
	for i := uint32(0); i < count; i++ {
		var s Sample
		var err error
		if off >= len(buf) {
			return dst, fmt.Errorf("data: DecodeSampleBatch: sample %d: truncated entry", i)
		}
		tag := buf[off]
		off++
		if tag != entryFP32 && tag != entryFP16 {
			return dst, fmt.Errorf("data: DecodeSampleBatch: sample %d: unknown entry tag %d", i, tag)
		}
		var id, label, bytes, nfeat uint64
		if id, off, err = readUvarint(buf, off); err == nil {
			if label, off, err = readUvarint(buf, off); err == nil {
				if bytes, off, err = readUvarint(buf, off); err == nil {
					nfeat, off, err = readUvarint(buf, off)
				}
			}
		}
		if err != nil {
			return dst, fmt.Errorf("data: DecodeSampleBatch: sample %d: %w", i, err)
		}
		s.ID = int(id)
		s.Label = int(label)
		s.Bytes = int64(bytes)
		width := 4
		if tag == entryFP16 {
			width = 2
		}
		if nfeat > uint64((len(buf)-off)/width) {
			return dst, fmt.Errorf("data: DecodeSampleBatch: sample %d: %d features exceed %d remaining bytes", i, nfeat, len(buf)-off)
		}
		s.Features = fs.take(int(nfeat))
		if tag == entryFP16 {
			tensor.WidenFP16(s.Features, buf[off:off+2*len(s.Features)])
			off += 2 * len(s.Features)
		} else {
			readFeatures(s.Features, buf[off:])
			off += 4 * len(s.Features)
			if featuresFP16Representable(s.Features) {
				return dst, fmt.Errorf("data: DecodeSampleBatch: sample %d: non-canonical fp32 entry (features are fp16-representable)", i)
			}
		}
		dst = append(dst, s)
	}
	if off != len(buf) {
		return dst, fmt.Errorf("data: DecodeSampleBatch: %d trailing bytes after %d samples", len(buf)-off, count)
	}
	return dst, nil
}
