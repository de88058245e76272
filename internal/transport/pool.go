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

// The payload pools recycle received data between the side that receives it
// — the TCP read loop, inproc's defensive clone — and the consumer that is
// done with it: gradient chunks ([]float32), which internal/mpi releases once
// a chunk is reduced or copied, and sample-batch bodies ([]byte), which the
// exchange scheduler releases once it has decoded them. Buffers come in
// power-of-two capacities from 1<<minClass elements up to maxPooledWireBuf
// bytes; anything outside that range is a plain make on Get and dropped on
// Put, so a pool pins neither crumbs nor giants.
//
// Ownership: a Get hands the slice to the caller outright, and a slice never
// returned is simply collected. A Put may be called only by the one owner of
// a slice that nothing else references. A delivered data payload belongs to
// its receiver: the collectives release the chunks they receive on internal
// tags, the exchange scheduler the batches it receives on its own tags, and
// a payload delivered to any other Recv stays the caller's for good.
const (
	minClass      = 6
	maxFloatClass = 20 // maxPooledWireBuf bytes of float32
	maxByteClass  = 22 // maxPooledWireBuf bytes
)

// slicePool is one element type's set of size classes.
type slicePool[T any] struct {
	maxClass int
	classes  [maxByteClass + 1]sync.Pool // by class: *sliceBox[T] with cap(s) == 1<<class
	boxes    sync.Pool                   // empty *sliceBox[T]
}

// sliceBox boxes a pooled slice so that Put does not allocate an interface
// header; the empty boxes cycle through the pool's boxes.
type sliceBox[T any] struct{ s []T }

var (
	floatPool = slicePool[float32]{maxClass: maxFloatClass}
	bytePool  = slicePool[byte]{maxClass: maxByteClass}
)

func (p *slicePool[T]) get(n int) []T {
	if n < 1<<minClass || n > 1<<p.maxClass {
		return make([]T, n)
	}
	class := bits.Len(uint(n - 1))
	b, _ := p.classes[class].Get().(*sliceBox[T])
	if b == nil {
		return make([]T, n, 1<<class)
	}
	s := b.s[:n]
	b.s = nil
	p.boxes.Put(b)
	return s
}

func (p *slicePool[T]) put(s []T) {
	class := bits.Len(uint(cap(s))) - 1
	if class < minClass || class > p.maxClass || cap(s) != 1<<class {
		return
	}
	b, _ := p.boxes.Get().(*sliceBox[T])
	if b == nil {
		b = new(sliceBox[T])
	}
	b.s = s[:0]
	p.classes[class].Put(b)
}

// GetFloat32s returns a slice of length n whose contents are unspecified:
// the caller overwrites all of it.
func GetFloat32s(n int) []float32 { return floatPool.get(n) }

// PutFloat32s gives f back for reuse; the caller must not touch it again.
// Slices whose capacity is not one of the pool's classes (not drawn from it,
// or too large to keep) are left to the collector.
func PutFloat32s(f []float32) { floatPool.put(f) }

// GetBytes is GetFloat32s for byte buffers: a slice of length n with
// unspecified contents.
func GetBytes(n int) []byte { return bytePool.get(n) }

// PutBytes is PutFloat32s for byte buffers.
func PutBytes(b []byte) { bytePool.put(b) }
