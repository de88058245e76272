package data

import (
	"encoding/binary"
	"math"
	"unsafe"
)

// HostLittleEndian reports whether this machine keeps numbers in memory in
// the byte order every format here is written in (the sample codecs, the
// transport's payloads, shard images). Where it does, the memory image of
// a numeric slice IS its encoding and a codec moves it with one copy; where
// it does not, the per-element loops run. The one probe for all of them —
// a variable, not a constant, so tests can force the fallback and hold it
// to the same vectors. Nothing else writes it.
var HostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// fixedWidth lists the element types the codecs write as fixed-width
// little-endian words.
type fixedWidth interface {
	~float32 | ~float64 | ~int | ~int32 | ~int64 | ~uint64
}

// BytesOf views the memory of s as bytes. The view always goes this way —
// numbers seen as bytes, never bytes seen as numbers: a numeric slice is
// aligned for its element and a []byte is aligned for nothing, and a view
// that stays inside the allocation it came from is what -race's checkptr
// accepts.
func BytesOf[T fixedWidth](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}

// appendFeatures appends fs as little-endian fp32 words.
func appendFeatures(dst []byte, fs []float32) []byte {
	if HostLittleEndian {
		return append(dst, BytesOf(fs)...)
	}
	for _, f := range fs {
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(f))
	}
	return dst
}

// readFeatures fills fs from the little-endian fp32 words at the front of
// src, which must hold at least 4·len(fs) bytes.
func readFeatures(fs []float32, src []byte) {
	if HostLittleEndian {
		copy(BytesOf(fs), src[:4*len(fs)])
		return
	}
	for i := range fs {
		fs[i] = math.Float32frombits(binary.LittleEndian.Uint32(src[4*i:]))
	}
}
