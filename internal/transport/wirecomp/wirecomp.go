// Package wirecomp is the block codec the TCP transport wraps around
// coalesced sample-batch frames (DESIGN.md §13.1): a canonical order-0
// Huffman code over bytes, at most 11 bits long, in four bitstreams that
// decode side by side.
//
//	block   := uvarint(n)                                                n = 0
//	         | uvarint(n) lengths uvarint(size0) uvarint(size1) uvarint(size2)
//	           stream0 stream1 stream2 stream3                           n > 0
//	lengths := 128 bytes: byte i holds the code length of symbol 2i in its
//	           low nibble and of 2i+1 in its high one; 0 = absent, ≤ 11
//
// Stream k codes output bytes [k·q, (k+1)·q) clipped to n, q = ⌈n/4⌉; the last
// stream is what remains of the block. Codes are canonical (shorter first,
// then by symbol), packed least significant bit first, each stream padded
// with zero bits to a whole byte. Decode checks every length, the Kraft sum,
// every stream bound and every padding bit, so it is safe on untrusted input.
package wirecomp

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
)

const (
	maxCodeLen = 11 // longest code; the decode table is indexed by this many bits
	tableSize  = 1 << maxCodeLen
	lengthsLen = 128 // 256 four-bit code lengths
	streams    = 4
)

// ErrCorrupt is wrapped by every Decode failure.
var ErrCorrupt = errors.New("wirecomp: corrupt block")

var flat = [256]uint8(bytes.Repeat([]byte{8}, 256)) // code lengths of the fallback

// MaxEncodedLen bounds the encoded size of n source bytes: the streams take at
// most n (Encode falls back to flat 8-bit codes when a Huffman code would be
// longer), the length prefix, code lengths and three stream sizes the rest.
func MaxEncodedLen(n int) int {
	return n + lengthsLen + streams*binary.MaxVarintLen64
}

// Encode appends the compressed form of src to dst and returns the extended
// slice. It never fails, and the same src always yields the same bytes.
func Encode(dst, src []byte) []byte {
	return EncodeTagged(dst, nil, src)
}

// EncodeTagged appends the block whose decoded form is head followed by src,
// without materialising the concatenation: the transport compresses a
// payload's type byte and body straight into the outgoing frame.
func EncodeTagged(dst, head, src []byte) []byte {
	n, h := len(head)+len(src), len(head)
	dst = binary.AppendUvarint(dst, uint64(n))
	if n == 0 {
		return dst
	}
	q := (n + streams - 1) / streams
	var segs [streams][2][]byte // each stream's share of head and of src
	for k := range segs {
		lo, hi := min(k*q, n), min((k+1)*q, n)
		segs[k] = [2][]byte{head[min(lo, h):min(hi, h)], src[max(lo-h, 0):max(hi-h, 0)]}
	}
	// Per-stream histograms, filled side by side: no run chains one counter.
	var hist [streams][256]uint32
	a, b, c, d := segs[0][1], segs[1][1], segs[2][1], segs[3][1]
	m := min(len(a), len(b), len(c), len(d))
	for i, x := range a[:m] {
		hist[0][x]++
		hist[1][b[i]]++
		hist[2][c[i]]++
		hist[3][d[i]]++
	}
	var freq [256]uint32
	for k, s := range segs { // the rest: head, and the longer segments' tails
		for _, x := range s[0] {
			hist[k][x]++
		}
		for _, x := range s[1][m:] {
			hist[k][x]++
		}
		for x, f := range &hist[k] {
			freq[x] += f
		}
	}
	var lens [256]uint8
	huffmanLengths(&freq, &lens)
	var size [streams]int
	for k := range size {
		for x, f := range &hist[k] {
			size[k] += int(f) * int(lens[x])
		}
		size[k] = (size[k] + 7) / 8
	}
	if size[0]+size[1]+size[2]+size[3] > n {
		lens = flat
		for k, s := range segs {
			size[k] = len(s[0]) + len(s[1])
		}
	}
	for i := 0; i < 256; i += 2 {
		dst = append(dst, lens[i]|lens[i+1]<<4)
	}
	for _, sz := range size[:streams-1] {
		dst = binary.AppendUvarint(dst, uint64(sz))
	}
	codes := canonical(&lens)
	dst = slices.Grow(dst, size[0]+size[1]+size[2]+size[3]+8)
	for k, s := range segs {
		dst = appendStream(dst, &codes, &lens, s, size[k])
	}
	return dst
}

// huffmanLengths sets lens to a Huffman code for freq (two queues: symbols by
// frequency, merged nodes as made), halving freq until no code is over 11 bits.
func huffmanLengths(freq *[256]uint32, lens *[256]uint8) {
	var order [256]uint64 // freq<<8 | symbol, for the symbols present
	n := 0
	for s, f := range freq {
		if f > 0 {
			order[n], n = uint64(f)<<8|uint64(s), n+1
		}
	}
	slices.Sort(order[:n])
	for deep := true; deep; {
		var weight [2 * 256]uint64
		var parent, depth [2 * 256]uint16
		for i := range n {
			weight[i] = order[i] >> 8
		}
		leaf, node := 0, n // fronts of the leaf and merged-node queues
		for next := n; next < 2*n-1; next++ {
			for range 2 {
				x := node
				if leaf < n && (node == next || weight[leaf] <= weight[node]) {
					x, leaf = leaf, leaf+1
				} else {
					node++
				}
				weight[next] += weight[x]
				parent[x] = uint16(next)
			}
		}
		deep = false
		for i := 2*n - 3; i >= 0; i-- {
			depth[i] = depth[parent[i]] + 1
			deep = deep || depth[i] > maxCodeLen
		}
		for i, o := range order[:n] {
			lens[byte(o)] = uint8(max(depth[i], 1)) // a lone symbol gets 1 bit
			order[i] = (o>>9+1)<<8 | o&0xff         // halved, still in order
		}
	}
}

// canonical returns the canonical code of each symbol, bit-reversed for
// LSB-first packing.
func canonical(lens *[256]uint8) (codes [256]uint32) {
	var count, next [maxCodeLen + 1]uint32
	for _, l := range lens {
		count[l]++
	}
	for l := 2; l <= maxCodeLen; l++ {
		next[l] = (next[l-1] + count[l-1]) << 1
	}
	for s, l := range lens {
		if l > 0 {
			codes[s] = bits.Reverse32(next[l]) >> (32 - l)
			next[l]++
		}
	}
	return codes
}

// appendStream appends the codes of parts' bytes as one stream of exactly
// size bytes, four codes (≤ 44 bits, on top of < 8 pending) per word store.
func appendStream(dst []byte, codes *[256]uint32, lens *[256]uint8, parts [2][]byte, size int) []byte {
	o := len(dst)
	dst = slices.Grow(dst, size+8)[:o+size+8] // word stores may run 8 bytes past
	var acc uint64
	var nb uint
	for _, p := range parts {
		for ; len(p) >= 4; p = p[4:] {
			acc, nb = acc|uint64(codes[p[0]])<<(nb&63), nb+uint(lens[p[0]])
			acc, nb = acc|uint64(codes[p[1]])<<(nb&63), nb+uint(lens[p[1]])
			acc, nb = acc|uint64(codes[p[2]])<<(nb&63), nb+uint(lens[p[2]])
			acc, nb = acc|uint64(codes[p[3]])<<(nb&63), nb+uint(lens[p[3]])
			binary.LittleEndian.PutUint64(dst[o:], acc)
			o, acc, nb = o+int(nb>>3), acc>>(nb&56), nb&7
		}
		for _, x := range p {
			acc, nb = acc|uint64(codes[x])<<(nb&63), nb+uint(lens[x])
		}
		binary.LittleEndian.PutUint64(dst[o:], acc)
		o, acc, nb = o+int(nb>>3), acc>>(nb&56), nb&7
	}
	binary.LittleEndian.PutUint64(dst[o:], acc)
	return dst[:o+int(nb+7)/8]
}

// parseHeader reads a block's length, code lengths and stream bounds (stream k
// is src[at[k]:at[k+1]]), refusing over 8 output bytes per stream byte.
func parseHeader(src []byte) (n int, lens []byte, at [streams + 1]int, err error) {
	d, p := binary.Uvarint(src)
	if p <= 0 || d > 1<<32 {
		return 0, nil, at, fmt.Errorf("%w: bad length prefix", ErrCorrupt)
	}
	if d == 0 && p != len(src) {
		return 0, nil, at, fmt.Errorf("%w: %d bytes after an empty block", ErrCorrupt, len(src)-p)
	} else if d == 0 {
		return 0, nil, at, nil
	}
	if len(src)-p < lengthsLen {
		return 0, nil, at, fmt.Errorf("%w: truncated code lengths", ErrCorrupt)
	}
	lens, p = src[p:p+lengthsLen], p+lengthsLen
	for k := 1; k < streams; k++ { // stream ends, relative to the first's start
		v, w := binary.Uvarint(src[p:])
		if w <= 0 || v > uint64(len(src)) {
			return 0, nil, at, fmt.Errorf("%w: truncated or oversized stream size", ErrCorrupt)
		}
		at[k], p = at[k-1]+int(v), p+w
	}
	if at[0], at[1], at[2], at[3], at[4] = p, at[1]+p, at[2]+p, at[3]+p, len(src); at[3] > len(src) {
		return 0, nil, at, fmt.Errorf("%w: streams of %d bytes overrun the block", ErrCorrupt, at[3]-p)
	}
	if d > 8*uint64(len(src)-at[0]) {
		return 0, nil, at, fmt.Errorf("%w: declared length %d impossible for %d stream bytes", ErrCorrupt, d, len(src)-at[0])
	}
	return int(d), lens, at, nil
}

// DecodedLen returns the size a block declares, without decoding it, and refuses
// one its length cannot hold: a hostile prefix cannot force a giant allocation.
func DecodedLen(src []byte) (int, error) {
	n, _, _, err := parseHeader(src)
	return n, err
}

// buildTable fills t from the packed code lengths. Indexed by 11 bits, low
// first, an entry holds as many whole codes as they begin with, up to four:
// the bits consumed in bits 0–5, the symbols from bit 8, the first code's
// length from bit 40 and the symbol count from bit 61. Zero names no code.
func buildTable(t *[tableSize]uint64, packed []byte) error {
	var lens [256]uint8
	var present [256]byte
	order, kraft := present[:0], 0 // the symbols present, shortest code first
	for s := range lens {
		if lens[s] = packed[s/2] >> (s % 2 * 4) & 15; lens[s] > maxCodeLen {
			return fmt.Errorf("%w: code length %d above %d", ErrCorrupt, lens[s], maxCodeLen)
		} else if lens[s] > 0 {
			order, kraft = append(order, byte(s)), kraft+tableSize>>lens[s]
		}
	}
	if kraft == 0 || kraft > tableSize {
		return fmt.Errorf("%w: code lengths with Kraft sum %d/%d", ErrCorrupt, kraft, tableSize)
	}
	slices.SortFunc(order, func(a, b byte) int { return int(lens[a]) - int(lens[b]) })
	codes := canonical(&lens)
	fill(t, order, &codes, &lens, 0, 0, 0)
	return nil
}

// fill writes entry e to every index whose low bits are the k codes e holds
// (prefix), then, over those, each entry one code longer that still fits.
func fill(t *[tableSize]uint64, order []byte, codes *[256]uint32, lens *[256]uint8, prefix, e uint64, k int) {
	used := e & 63
	for j, step := prefix, uint64(1)<<used; j < tableSize && k > 0; j += step { // t starts zeroed
		t[j] = e
	}
	for _, s := range order {
		l := uint64(lens[s])
		if k == 4 || used+l > maxCodeLen {
			return
		}
		first := l << 40 * uint64(1-min(k, 1)) // the first code's length
		fill(t, order, codes, lens, prefix|uint64(codes[s])<<used, e+uint64(s)<<(8+8*k)+l+first+1<<61, k+1)
	}
}

// Decode appends the decompressed form of src to dst and returns the extended
// slice, or an error wrapping ErrCorrupt (dst then unusable) if src is malformed.
func Decode(dst, src []byte) ([]byte, error) {
	n, lens, at, err := parseHeader(src)
	var t [tableSize]uint64
	if err == nil && n > 0 {
		err = buildTable(&t, lens)
	}
	if err != nil || n == 0 {
		return dst, err
	}
	base := len(dst)
	dst = slices.Grow(dst, n)[:base+n]
	out, q := dst[base:], (n+streams-1)/streams
	p0, p1, p2, p3 := 8*at[0], 8*at[1], 8*at[2], 8*at[3] // bit positions in src
	o0, o1, o2, o3 := 0, min(q, n), min(2*q, n), min(3*q, n)
	oend := [streams]int{o1, o2, o3, n}
	// The streams in lockstep while each has 8 bytes of input and room for 16
	// output bytes: a word load gives each 56 bits for four lookups of up to 11,
	// under a sentinel bit that ends where they stopped (unmoved at a pattern
	// naming no code). Each lookup stores four bytes, whatever it yields.
	for o0+16 <= oend[0] && o1+16 <= oend[1] && o2+16 <= oend[2] && o3+16 <= oend[3] &&
		p0+64 <= 8*at[1] && p1+64 <= 8*at[2] && p2+64 <= 8*at[3] && p3+64 <= 8*at[4] {
		v0 := binary.LittleEndian.Uint64(src[p0>>3:])>>(p0&7)&(1<<56-1) | 1<<56
		v1 := binary.LittleEndian.Uint64(src[p1>>3:])>>(p1&7)&(1<<56-1) | 1<<56
		v2 := binary.LittleEndian.Uint64(src[p2>>3:])>>(p2&7)&(1<<56-1) | 1<<56
		v3 := binary.LittleEndian.Uint64(src[p3>>3:])>>(p3&7)&(1<<56-1) | 1<<56
		for range 4 {
			e0, e1, e2, e3 := t[v0&(tableSize-1)], t[v1&(tableSize-1)], t[v2&(tableSize-1)], t[v3&(tableSize-1)]
			binary.LittleEndian.PutUint32(out[o0:], uint32(e0>>8))
			binary.LittleEndian.PutUint32(out[o1:], uint32(e1>>8))
			binary.LittleEndian.PutUint32(out[o2:], uint32(e2>>8))
			binary.LittleEndian.PutUint32(out[o3:], uint32(e3>>8))
			o0, o1, o2, o3 = o0+int(e0>>61), o1+int(e1>>61), o2+int(e2>>61), o3+int(e3>>61)
			v0, v1, v2, v3 = v0>>(e0&63), v1>>(e1&63), v2>>(e2&63), v3>>(e3&63)
		}
		if max(v0, v1, v2, v3) >= 1<<56 {
			return dst, fmt.Errorf("%w: a bit pattern names no code", ErrCorrupt)
		}
		p0, p1, p2, p3 = p0+bits.LeadingZeros64(v0)-7, p1+bits.LeadingZeros64(v1)-7, p2+bits.LeadingZeros64(v2)-7, p3+bits.LeadingZeros64(v3)-7
	}
	pos, o := [streams]int{p0, p1, p2, p3}, [streams]int{o0, o1, o2, o3}
	// Each stream's tail one symbol at a time, reading zeros past its end.
	for k, p := range pos {
		s := src[:at[k+1]]
		for ; o[k] < oend[k]; o[k]++ {
			e := t[peek(s, p)&(tableSize-1)]
			if p += int(e >> 40 & 15); e == 0 || p > 8*len(s) {
				return dst, fmt.Errorf("%w: stream %d ends early or names no code", ErrCorrupt, k)
			}
			out[o[k]] = byte(e >> 8)
		}
		if (p+7)/8 != len(s) || peek(s, p) != 0 {
			return dst, fmt.Errorf("%w: stream %d has bits left over", ErrCorrupt, k)
		}
	}
	return dst, nil
}

// peek returns the bits of s from bit p on, zero past its end (p ≤ 8·len(s)).
func peek(s []byte, p int) uint64 {
	var w [8]byte
	copy(w[:], s[p>>3:])
	return binary.LittleEndian.Uint64(w[:]) >> (p & 7)
}
