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
	"math"
	"slices"
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

// fp16Short decides the common case of "is this float32 exactly a half?"
// from the bits alone: an exponent inside the fp16 normal range (113..142,
// fp16's 1..30) and the 13 mantissa bits fp16 lacks all zero. Narrowing such
// a value is a shift and a re-bias with nothing to round. Subnormals, Inf,
// NaN and everything inexact or out of range fail the test and go to
// fp16FromF32/fp16ToF32, which stay the definition of representable.
func fp16Short(b uint32) bool { return b&0x1fff == 0 && (b>>23&0xff)-113 < 30 }

// fp16Representable reports whether f survives an fp16 round trip bit for
// bit. Values beyond fp16 range and NaNs whose payload needs the low
// mantissa bits do not (quantizing would change their bits), so
// EncodingFP16Exact keeps them in fp32.
func fp16Representable(f float32) bool {
	return math.Float32bits(fp16ToF32(fp16FromF32(f))) == math.Float32bits(f)
}

func featuresFP16Representable(fs []float32) bool {
	for _, f := range fs {
		if !fp16Short(math.Float32bits(f)) && !fp16Representable(f) {
			return false
		}
	}
	return true
}

// QuantizeFeaturesFP16 rounds every feature to its nearest fp16 value in
// place (round-to-nearest-even). Datasets pre-conditioned this way ship
// every sample compact under EncodingFP16Exact while keeping that mode's
// bitwise-exactness guarantee.
func QuantizeFeaturesFP16(fs []float32) {
	for i, f := range fs {
		fs[i] = fp16ToF32(fp16FromF32(f))
	}
}

// appendFP16Exact appends fs as fp16 halves if every feature is
// fp16-representable; at the first one that is not it gives up and returns
// dst as it was. Classifying and narrowing are one pass: a representable
// sample is never looked at twice.
func appendFP16Exact(dst []byte, fs []float32) ([]byte, bool) {
	base := len(dst)
	dst = slices.Grow(dst, 2*len(fs))
	for _, f := range fs {
		b := math.Float32bits(f)
		var h uint16
		if fp16Short(b) {
			h = uint16(b>>16&0x8000) | uint16((b&0x7fffffff)>>13-112<<10)
		} else if b<<1 == 0 {
			h = uint16(b >> 16) // ±0, too common on real features to send to the oracle
		} else if h = fp16FromF32(f); math.Float32bits(fp16ToF32(h)) != b {
			return dst[:base], false
		}
		dst = binary.LittleEndian.AppendUint16(dst, h)
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
// canonical form. Dispatch lives in DecodeSampleBatchInto.
func decodeSampleBatchV2(dst []Sample, buf []byte) ([]Sample, error) {
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
		s.Features = make([]float32, nfeat)
		if tag == entryFP16 {
			body := buf[off : off+2*len(s.Features)]
			for j := range s.Features {
				h := uint32(body[2*j]) | uint32(body[2*j+1])<<8
				if e := h & 0x7c00; e != 0 && e != 0x7c00 {
					// A normal half widens by a shift and a re-bias.
					s.Features[j] = math.Float32frombits((h&0x8000)<<16 | ((h&0x7fff)<<13 + 112<<23))
				} else {
					s.Features[j] = fp16ToF32(uint16(h))
				}
			}
			off += len(body)
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

// --- half-precision conversion (hand-written; the repo takes no deps) ---

// fp16ToF32 widens an IEEE 754 binary16 value. Every one of the 65536 half
// patterns maps to a distinct, exactly-representable float32 — including
// subnormals, infinities, and NaNs (payload preserved in the top mantissa
// bits) — so fp16FromF32 inverts it bit for bit (pinned by an exhaustive
// test).
func fp16ToF32(h uint16) float32 {
	sign := uint32(h>>15) << 31
	exp := uint32(h >> 10 & 0x1f)
	man := uint32(h & 0x3ff)
	switch {
	case exp == 0:
		if man == 0 {
			return math.Float32frombits(sign) // ±0
		}
		// Subnormal: normalize into the f32 exponent range.
		e := uint32(127 - 15 + 1)
		for man&0x400 == 0 {
			man <<= 1
			e--
		}
		return math.Float32frombits(sign | e<<23 | (man&0x3ff)<<13)
	case exp == 0x1f:
		return math.Float32frombits(sign | 0xff<<23 | man<<13) // ±Inf / NaN
	default:
		return math.Float32frombits(sign | (exp+112)<<23 | man<<13)
	}
}

// fp16FromF32 narrows a float32 to binary16 with round-to-nearest-even.
// Overflow rounds to the like-signed infinity; NaN payloads keep their top
// 10 mantissa bits (quieted if that truncation would read as infinity).
func fp16FromF32(f float32) uint16 {
	b := math.Float32bits(f)
	sign := uint16(b>>16) & 0x8000
	e := int32(b>>23&0xff) - 127 + 15
	man := b & 0x7fffff
	if b>>23&0xff == 0xff {
		if man == 0 {
			return sign | 0x7c00 // ±Inf
		}
		m := uint16(man >> 13)
		if m == 0 {
			m = 0x200 // payload vanished; force a quiet NaN
		}
		return sign | 0x7c00 | m
	}
	if e >= 0x1f {
		return sign | 0x7c00 // overflow → ±Inf
	}
	if e <= 0 {
		if e < -10 {
			return sign // underflows past the smallest subnormal → ±0
		}
		// Subnormal result: shift the 24-bit significand down, RNE.
		man |= 0x800000
		shift := uint32(14 - e)
		m := man >> shift
		rem := man & (1<<shift - 1)
		half := uint32(1) << (shift - 1)
		if rem > half || (rem == half && m&1 == 1) {
			m++
		}
		return sign | uint16(m) // m may carry into the exponent; that is correct
	}
	m := man >> 13
	rem := man & 0x1fff
	if rem > 0x1000 || (rem == 0x1000 && m&1 == 1) {
		m++
	}
	return sign | (uint16(e)<<10 + uint16(m)) // mantissa carry rolls the exponent
}
