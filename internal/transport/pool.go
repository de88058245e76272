package transport

import (
	"math/bits"
	"sync"
)

// WireBuf is a pooled wire-encoding buffer. Pooling the struct pointer (not
// the raw []byte) avoids the interface-boxing allocation a naked slice would
// pay on every Put. The TCP backend threads WireBufs from Send through the
// per-peer writer queue and back into the pool once the frame is confirmed
// written, so a steady-state send allocates nothing.
type WireBuf struct {
	B []byte
}

// maxPooledWireBuf caps the capacity a buffer may keep when returned to the
// pool. Occasional giants (a full-model gradient frame, a fat sample batch)
// are dropped rather than pinned in memory forever.
const maxPooledWireBuf = 4 << 20

var wireBufPool = sync.Pool{New: func() any { return new(WireBuf) }}

// GetWireBuf fetches a buffer from the pool. Its B slice has length zero but
// retains capacity from earlier use.
func GetWireBuf() *WireBuf {
	return wireBufPool.Get().(*WireBuf)
}

// PutWireBuf returns a buffer to the pool. The caller must not touch wb or
// wb.B afterwards.
func PutWireBuf(wb *WireBuf) {
	if wb == nil {
		return
	}
	if cap(wb.B) > maxPooledWireBuf {
		wb.B = nil
	} else {
		wb.B = wb.B[:0]
	}
	wireBufPool.Put(wb)
}

// The float32 payload pool recycles gradient chunks between the side that
// receives them — the TCP read loop, inproc's defensive clone — and the
// collective that consumes them (internal/mpi releases a chunk once it is
// reduced or copied). Buffers come in power-of-two capacities from
// 1<<minFloatClass to 1<<maxFloatClass elements, the second being
// maxPooledWireBuf bytes; anything outside that range is a plain make on Get
// and dropped on Put, so the pool pins neither crumbs nor giants.
//
// Ownership: GetFloat32s hands the slice to the caller outright, and a slice
// never returned is simply collected. PutFloat32s may be called only by the
// one owner of a slice that nothing else references — in this repository,
// the collective that received it on an internal tag. A payload delivered to
// a user-level Recv belongs to the caller and is never released.
const (
	minFloatClass = 6
	maxFloatClass = 20
)

// floatBuf boxes a pooled slice so that Put does not allocate an interface
// header; the empty boxes cycle through floatBoxes.
type floatBuf struct{ f []float32 }

var (
	floatPools [maxFloatClass + 1]sync.Pool // by class: *floatBuf with cap(f) == 1<<class
	floatBoxes = sync.Pool{New: func() any { return new(floatBuf) }}
)

// GetFloat32s returns a slice of length n whose contents are unspecified:
// the caller overwrites all of it.
func GetFloat32s(n int) []float32 {
	if n < 1<<minFloatClass || n > 1<<maxFloatClass {
		return make([]float32, n)
	}
	class := bits.Len(uint(n - 1))
	fb, _ := floatPools[class].Get().(*floatBuf)
	if fb == nil {
		return make([]float32, n, 1<<class)
	}
	f := fb.f[:n]
	fb.f = nil
	floatBoxes.Put(fb)
	return f
}

// PutFloat32s gives f back for reuse; the caller must not touch it again.
// Slices whose capacity is not one of the pool's classes (not drawn from it,
// or too large to keep) are left to the collector.
func PutFloat32s(f []float32) {
	class := bits.Len(uint(cap(f))) - 1
	if class < minFloatClass || class > maxFloatClass || cap(f) != 1<<class {
		return
	}
	fb := floatBoxes.Get().(*floatBuf)
	fb.f = f[:0]
	floatPools[class].Put(fb)
}
