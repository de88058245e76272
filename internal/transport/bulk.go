package transport

import (
	"math/bits"
	"unsafe"
)

// hostLittleEndian reports whether this machine keeps numbers in memory in
// the wire's byte order. Where it does, the memory image of a numeric slice
// IS its payload encoding and the codec moves it with one copy; where it
// does not, the per-element loops run. A variable, not a constant, so the
// tests can force the fallback and hold it to the same vectors.
var hostLittleEndian = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// intIs64 gates the bulk path of []int, which travels as int64.
const intIs64 = bits.UintSize == 64

// fixedWidth lists the element types the codec writes as fixed-width
// little-endian words.
type fixedWidth interface {
	~float32 | ~float64 | ~int | ~int32 | ~int64 | ~uint64
}

// bytesOf views the memory of s as bytes. The view always goes this way —
// numbers seen as bytes, never bytes seen as numbers: a numeric slice is
// aligned for its element and a []byte is aligned for nothing, and a view
// that stays inside the allocation it came from is what -race's checkptr
// accepts.
func bytesOf[T fixedWidth](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
}
