// Package wirecomp is the self-contained block codec the TCP transport
// wraps around coalesced sample-batch frames (DESIGN.md §13). It is an
// LZ77 byte-oriented format in the spirit of snappy — greedy single-probe
// hash matching, literal runs and back-references, no entropy stage — chosen
// because sample batches are dominated by repeated header structure and
// near-duplicate feature blocks, and because the decoder must be cheap
// enough to sit on the transport's read loop.
//
// The format is deliberately tiny:
//
//	block      := uvarint(decodedLen) element*
//	element    := literal | match
//	literal    := tag(bit0=0, runLen-1 in bits 1..7) byte{runLen}   runLen 1..128
//	match      := tag(bit0=1, matchLen-minMatch in bits 1..7)
//	              uvarint(offset)                                   matchLen 4..131
//
// Offsets are distances back into the already-decoded output (1 ≤ offset ≤
// pos) and may overlap forward, so runs compress (offset 1). Every element
// is bounds-checked on decode; Decode never reads or writes out of range
// and returns an error for any malformed block, making the codec safe on
// untrusted wire input.
//
// Encode does a bounded amount of work per source byte — one hash-table
// store per scanned position plus two per match — so its cost is linear in
// the input whatever the match structure (pinned by a count in the tests,
// not a timing).
package wirecomp

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"sync"
)

const (
	minMatch      = 4
	maxMatchTag   = minMatch + 127 // longest match one tag byte encodes
	maxLiteralRun = 128

	// The hash table has one slot per source byte, rounded up to a power of
	// two within these bounds, so a small frame clears a small table. More
	// than 2^14 slots buys nothing on sample batches (their alphabet of
	// 4-byte windows is small) and costs cache.
	minTableBits = 8
	maxTableBits = 14
)

// ErrCorrupt is wrapped by every Decode failure.
var ErrCorrupt = errors.New("wirecomp: corrupt block")

// MaxEncodedLen bounds the encoded size of n source bytes: the worst case
// is pure literals (one tag byte per 128 source bytes) plus the length
// prefix. Callers sizing scratch buffers use it; Encode never exceeds it.
func MaxEncodedLen(n int) int {
	return n + n/maxLiteralRun + binary.MaxVarintLen64 + 1
}

// tablePool recycles hash tables across Encode calls; each call clears only
// the prefix it uses.
var tablePool = sync.Pool{New: func() any { return new([1 << maxTableBits]int32) }}

// Encode appends the compressed form of src to dst and returns the extended
// slice. It never fails; incompressible input degrades to literal runs
// (bounded by MaxEncodedLen). Encoding is deterministic: the same src
// always yields the same bytes.
func Encode(dst, src []byte) []byte {
	return EncodeTagged(dst, nil, src)
}

// EncodeTagged appends the block whose decoded form is head followed by src,
// without materialising the concatenation: the transport compresses a
// payload's type byte and body straight into the outgoing frame. head (at
// most maxLiteralRun bytes) opens the first literal run and is never matched
// against. The bound is MaxEncodedLen(len(head)+len(src)), as for Encode.
func EncodeTagged(dst, head, src []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(head)+len(src)))
	dst, _ = encodeBody(dst, head, src)
	return dst
}

// encodeBody appends the elements for head+src (no length prefix) and
// returns the number of hash-table stores it made — the unit of encoder work
// the linear-time test bounds.
func encodeBody(dst, head, src []byte) ([]byte, int) {
	if len(src) <= minMatch {
		return appendLiterals(dst, head, src), 0
	}
	tableBits := min(max(bits.Len(uint(len(src)-1)), minTableBits), maxTableBits)
	full := tablePool.Get().(*[1 << maxTableBits]int32)
	defer tablePool.Put(full)
	table := full[:1<<tableBits] // position+1 of the last occurrence of each hash; 0 = empty
	clear(table)
	shift := 32 - uint(tableBits)

	stores := 0
	litStart := 0 // start of the pending literal run
	pos := 0
	limit := len(src) - minMatch
	for pos <= limit {
		v := binary.LittleEndian.Uint32(src[pos:])
		h := (v * 2654435761) >> shift
		cand := int(table[h]) - 1
		table[h] = int32(pos) + 1
		stores++
		if cand < 0 || binary.LittleEndian.Uint32(src[cand:]) != v {
			pos++
			continue
		}
		n := minMatch + matchLen(src, cand+minMatch, pos+minMatch)
		offset := uint64(pos - cand)
		// A match costs its element (tag + offset bytes) and, because it
		// splits the literal run around it, possibly one more literal tag. It
		// must cover at least that much, or short matches far back (3+ offset
		// bytes) would grow the block past MaxEncodedLen.
		if offset >= 1<<14 && n < (bits.Len64(offset)+6)/7+2 {
			pos++
			continue
		}
		if litStart < pos || len(head) > 0 { // back-to-back matches have nothing between them
			dst = appendLiterals(dst, head, src[litStart:pos])
			head = nil
		}
		if offset < 1<<14 && n <= maxMatchTag {
			// One element with a one- or two-byte offset — nearly every match
			// of a sample batch. Which of the two is a coin flip there, so
			// write both bytes and keep the second only if it is needed,
			// instead of branching on it.
			two := int((offset + (1<<14 - 1<<7)) >> 14) // 1 iff offset ≥ 128
			dst = append(dst, byte((n-minMatch)<<1)|1, byte(offset)|byte(two<<7), byte(offset>>7))
			dst = dst[:len(dst)-1+two]
			pos += n
		} else {
			// A tail shorter than a match element folds into the next literal run.
			for n >= minMatch {
				m := min(n, maxMatchTag)
				dst = append(dst, byte((m-minMatch)<<1)|1)
				dst = binary.AppendUvarint(dst, offset)
				pos += m
				n -= m
			}
		}
		litStart = pos
		// The scan resumes past the match, so the windows straddling its end
		// would never enter the table; seed the last two (on half-precision
		// batches, whose matches are a few values long, they are where the
		// next match starts). Two stores per match, whatever its length or
		// distance — the seed encoder walked back over the whole distance.
		if pos-1 <= limit {
			table[(binary.LittleEndian.Uint32(src[pos-2:])*2654435761)>>shift] = int32(pos) - 1
			table[(binary.LittleEndian.Uint32(src[pos-1:])*2654435761)>>shift] = int32(pos)
			stores += 2
		}
	}
	return appendLiterals(dst, head, src[litStart:]), stores
}

// matchLen returns how many bytes src[a:] and src[b:] share (a < b),
// comparing a word at a time and finishing on the first differing byte.
func matchLen(src []byte, a, b int) int {
	n := 0
	for ; b+n+8 <= len(src); n += 8 {
		if x := binary.LittleEndian.Uint64(src[a+n:]) ^ binary.LittleEndian.Uint64(src[b+n:]); x != 0 {
			return n + bits.TrailingZeros64(x)>>3
		}
	}
	for b+n < len(src) && src[a+n] == src[b+n] {
		n++
	}
	return n
}

// appendLiterals appends head+lit as literal runs; head must fit one run.
func appendLiterals(dst, head, lit []byte) []byte {
	if len(head) > 0 {
		n := min(len(lit), maxLiteralRun-len(head))
		dst = append(dst, byte((len(head)+n-1)<<1))
		dst = append(dst, head...)
		dst = append(dst, lit[:n]...)
		lit = lit[n:]
	}
	for len(lit) > 0 {
		n := min(len(lit), maxLiteralRun)
		dst = append(dst, byte((n-1)<<1))
		dst = append(dst, lit[:n]...)
		lit = lit[n:]
	}
	return dst
}

// DecodedLen returns the decoded size a block declares, without decoding,
// and refuses a size no block of src's length can decode to — so a caller
// may allocate the output before Decode without a hostile prefix forcing a
// giant allocation.
func DecodedLen(src []byte) (int, error) {
	n, sz := binary.Uvarint(src)
	if sz <= 0 || n > 1<<32 {
		return 0, fmt.Errorf("%w: bad length prefix", ErrCorrupt)
	}
	if n > uint64(len(src)-sz)*maxMatchTag {
		return 0, fmt.Errorf("%w: declared length %d impossible for %d input bytes", ErrCorrupt, n, len(src)-sz)
	}
	return int(n), nil
}

// Decode appends the decompressed form of src to dst and returns the
// extended slice. Any structural violation — truncated element, offset
// beyond the produced output, output running past or stopping short of the
// declared length — returns an error wrapping ErrCorrupt with dst unusable.
func Decode(dst, src []byte) ([]byte, error) {
	declared, sz := binary.Uvarint(src)
	if sz <= 0 || declared > 1<<32 {
		return dst, fmt.Errorf("%w: bad length prefix", ErrCorrupt)
	}
	src = src[sz:]
	// A match element (2+ input bytes) expands to at most maxMatchTag output
	// bytes, so any block declaring more than that ratio is corrupt — checked
	// before the pre-allocation so hostile prefixes cannot force huge allocs.
	if declared > uint64(len(src))*maxMatchTag {
		return dst, fmt.Errorf("%w: declared length %d impossible for %d input bytes", ErrCorrupt, declared, len(src))
	}
	base := len(dst)
	if cap(dst)-base < int(declared) {
		grown := make([]byte, base, base+int(declared))
		copy(grown, dst)
		dst = grown
	}
	out := dst[base : base+int(declared)]
	d := 0 // bytes of out produced so far
	for s := 0; s < len(src); {
		tag := src[s]
		s++
		if tag&1 == 0 { // literal run
			n := int(tag>>1) + 1
			if n > len(src)-s {
				return dst, fmt.Errorf("%w: literal run of %d overruns input", ErrCorrupt, n)
			}
			if n > len(out)-d {
				return dst, fmt.Errorf("%w: output exceeds the declared %d bytes", ErrCorrupt, declared)
			}
			d += copy(out[d:], src[s:s+n])
			s += n
			continue
		}
		n := int(tag>>1) + minMatch
		// The offset. One- and two-byte varints (every distance below 16 KiB)
		// are decoded without a branch on which of the two it is: on sample
		// batches that is a coin flip the predictor loses.
		var offset uint64
		if s+2 <= len(src) && src[s]&src[s+1]&0x80 == 0 {
			two := uint64(src[s] >> 7)
			offset = uint64(src[s]&0x7f) | uint64(src[s+1])<<7*two
			s += 1 + int(two)
		} else {
			var osz int
			if offset, osz = binary.Uvarint(src[s:]); osz <= 0 {
				return dst, fmt.Errorf("%w: truncated match offset", ErrCorrupt)
			}
			s += osz
		}
		if offset == 0 || offset > uint64(d) {
			return dst, fmt.Errorf("%w: match offset %d at output position %d", ErrCorrupt, offset, d)
		}
		if n > len(out)-d {
			return dst, fmt.Errorf("%w: output exceeds the declared %d bytes", ErrCorrupt, declared)
		}
		from, end := d-int(offset), d+n
		if n <= 16 && offset >= 8 && len(out)-d >= 16 {
			// Short match, the common case on sample batches: two word moves
			// beat a copy call. They may write past the match (never past
			// out); whatever follows overwrites the excess.
			binary.LittleEndian.PutUint64(out[d:], binary.LittleEndian.Uint64(out[from:]))
			binary.LittleEndian.PutUint64(out[d+8:], binary.LittleEndian.Uint64(out[from+8:]))
			d = end
			continue
		}
		// An overlapping match (offset < n) replicates its period: each pass
		// copies everything produced since the match source began, doubling
		// the span; a non-overlapping match is one copy.
		for d < end {
			d += copy(out[d:end], out[from:d])
		}
	}
	if d != len(out) {
		return dst, fmt.Errorf("%w: decoded %d bytes, block declares %d", ErrCorrupt, d, declared)
	}
	return dst[:base+d], nil
}
