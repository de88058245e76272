package nn

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"

	"plshuffle/internal/rng"
)

// This file extends the weight checkpoint (serialize.go) to the rest of the
// training state a bitwise resume needs: the optimizer's moment buffers and
// the model's dropout RNG stream positions. Together with SaveWeights and
// the per-worker rng states, a rank's snapshot fully determines the rest of
// its run.

// RNGStates captures the stream positions of every distinct RNG feeding the
// model's dropout layers, in first-use layer order. Layers built from one
// shared generator (ModelSpec.Build uses a single dropRNG) contribute one
// state; the slice is empty for dropout-free models.
func RNGStates(model *Sequential) [][4]uint64 {
	var out [][4]uint64
	seen := map[*rng.Rand]bool{}
	for _, l := range model.Layers {
		d, ok := l.(*Dropout)
		if !ok || d.rand == nil || seen[d.rand] {
			continue
		}
		seen[d.rand] = true
		out = append(out, d.rand.State())
	}
	return out
}

// SetRNGStates restores the stream positions captured by RNGStates into a
// freshly built model with the same architecture. The count must match.
func SetRNGStates(model *Sequential, states [][4]uint64) error {
	i := 0
	seen := map[*rng.Rand]bool{}
	for _, l := range model.Layers {
		d, ok := l.(*Dropout)
		if !ok || d.rand == nil || seen[d.rand] {
			continue
		}
		seen[d.rand] = true
		if i >= len(states) {
			return fmt.Errorf("nn: SetRNGStates: model has more RNG streams than the %d captured", len(states))
		}
		d.rand.SetState(states[i])
		i++
	}
	if i != len(states) {
		return fmt.Errorf("nn: SetRNGStates: captured %d RNG streams, model uses %d", len(states), i)
	}
	return nil
}

// optimizerMagic identifies the optimizer-state format ("PLSO" + version 1).
var optimizerMagic = [5]byte{'P', 'L', 'S', 'O', 1}

// Optimizer kind bytes. The kind is stored so a resume with mismatched
// flags (-lars on one side only) fails loudly instead of silently training
// with fresh moments. Kind 2 is retired, never to be reused: it is the
// LAMB optimizer's, whose snapshots every remaining kind refuses.
const (
	optKindSGD  = 1
	optKindLARS = 3
)

// SaveOptimizerState writes o's moment buffers in a stable little-endian
// format. Lazily initialized state that has not materialized yet (no Step
// taken) is recorded as absent and restores as absent — a resume from an
// epoch-0 checkpoint matches a fresh start bit for bit.
func SaveOptimizerState(w io.Writer, o Optimizer) error {
	if _, err := w.Write(optimizerMagic[:]); err != nil {
		return fmt.Errorf("nn: SaveOptimizerState: %w", err)
	}
	var err error
	switch o := o.(type) {
	case *SGD:
		err = writeByte(w, optKindSGD)
		if err == nil {
			err = writeSlices(w, o.layout())
		}
	case *LARS:
		err = writeByte(w, optKindLARS)
		if err == nil {
			err = writeSlices(w, o.velocity)
		}
		if err == nil {
			err = writeBools(w, o.is1D)
		}
	default:
		return fmt.Errorf("nn: SaveOptimizerState: unknown optimizer type %T", o)
	}
	if err != nil {
		return fmt.Errorf("nn: SaveOptimizerState: %w", err)
	}
	return nil
}

// LoadOptimizerState restores state written by SaveOptimizerState into o,
// which must be a freshly constructed optimizer of the same kind.
func LoadOptimizerState(r io.Reader, o Optimizer) error {
	var magic [5]byte
	if _, err := io.ReadFull(r, magic[:]); err != nil {
		return fmt.Errorf("nn: LoadOptimizerState: reading header: %w", err)
	}
	if magic != optimizerMagic {
		return fmt.Errorf("nn: LoadOptimizerState: bad magic %q (not an optimizer snapshot or wrong version)", magic)
	}
	kind, err := readByte(r)
	if err != nil {
		return fmt.Errorf("nn: LoadOptimizerState: %w", err)
	}
	switch o := o.(type) {
	case *SGD:
		if kind != optKindSGD {
			return fmt.Errorf("nn: LoadOptimizerState: snapshot kind %d, optimizer is SGD", kind)
		}
		var vs [][]float32
		if vs, err = readSlices(r); err == nil {
			err = o.restore(vs)
		}
	case *LARS:
		if kind != optKindLARS {
			return fmt.Errorf("nn: LoadOptimizerState: snapshot kind %d, optimizer is LARS", kind)
		}
		o.velocity, err = readSlices(r)
		if err == nil {
			o.is1D, err = readBools(r)
		}
		if err == nil && (o.velocity == nil) != (o.is1D == nil) {
			err = fmt.Errorf("half-initialized LARS state (corrupt snapshot)")
		}
	default:
		return fmt.Errorf("nn: LoadOptimizerState: unknown optimizer type %T", o)
	}
	if err != nil {
		return fmt.Errorf("nn: LoadOptimizerState: %w", err)
	}
	return nil
}

// stateLimit bounds per-field element counts when decoding attacker-shaped
// bytes, mirroring the wire codec's discipline: a corrupt length prefix
// must fail, not allocate gigabytes. Below the limit the decoder still
// allocates only for bytes that arrive (readFull), so a plausible prefix on
// a short input fails at EOF without reserving what it promised.
const stateLimit = 1 << 28

// readFull reads exactly n bytes into a buffer that grows with the input.
func readFull(r io.Reader, n int64) ([]byte, error) {
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, n); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		return nil, err
	}
	return buf.Bytes(), nil
}

func writeByte(w io.Writer, b byte) error {
	_, err := w.Write([]byte{b})
	return err
}

func readByte(r io.Reader) (byte, error) {
	var b [1]byte
	_, err := io.ReadFull(r, b[:])
	return b[0], err
}

// writeSlices encodes a lazily initialized [][]float32: a presence byte,
// then (when present) a u32 slice count and each slice as u32 length +
// float32 LE values.
func writeSlices(w io.Writer, s [][]float32) error {
	if s == nil {
		return writeByte(w, 0)
	}
	if err := writeByte(w, 1); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	for _, v := range s {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(v))); err != nil {
			return err
		}
		buf := make([]byte, 4*len(v))
		for i, f := range v {
			binary.LittleEndian.PutUint32(buf[4*i:], math.Float32bits(f))
		}
		if _, err := w.Write(buf); err != nil {
			return err
		}
	}
	return nil
}

// layout returns the moments in the snapshot's per-tensor layout: the
// values this optimizer holds, zeros where they do not reach (the other
// ranks' chunks under Shard); nil before they materialize.
func (o *SGD) layout() [][]float32 {
	if o.moments == nil {
		return nil
	}
	flat := make([]float32, sum(o.lens))
	copy(flat[o.lo:], o.moments)
	out := make([][]float32, len(o.lens))
	for i, n := range o.lens {
		out[i], flat = flat[:n:n], flat[n:]
	}
	return out
}

// restore adopts per-tensor moments read from a snapshot. A sharded
// optimizer keeps its own range of them, whatever the snapshot holds
// elsewhere: one rank's chunk and zeros, or every moment.
func (o *SGD) restore(vs [][]float32) error {
	if vs == nil {
		clear(o.moments)
		return nil
	}
	lens, flat := make([]int, len(vs)), slices.Concat(vs...)
	for i, v := range vs {
		lens[i] = len(v)
	}
	if o.lens == nil {
		o.lens, o.moments = lens, flat
		return nil
	}
	if !slices.Equal(lens, o.lens) {
		return fmt.Errorf("snapshot's SGD moments do not have the model's parameter shapes")
	}
	copy(o.moments, flat[o.lo:])
	return nil
}

func readSlices(r io.Reader) ([][]float32, error) {
	present, err := readByte(r)
	if err != nil {
		return nil, err
	}
	if present == 0 {
		return nil, nil
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	if count > stateLimit {
		return nil, fmt.Errorf("implausible slice count %d", count)
	}
	out := make([][]float32, 0, min(count, 1024))
	for range count {
		var n uint32
		if err := binary.Read(r, binary.LittleEndian, &n); err != nil {
			return nil, err
		}
		if n > stateLimit {
			return nil, fmt.Errorf("implausible slice length %d", n)
		}
		buf, err := readFull(r, 4*int64(n))
		if err != nil {
			return nil, err
		}
		v := make([]float32, n)
		for j := range v {
			v[j] = math.Float32frombits(binary.LittleEndian.Uint32(buf[4*j:]))
		}
		out = append(out, v)
	}
	return out, nil
}

func writeBools(w io.Writer, s []bool) error {
	if s == nil {
		return writeByte(w, 0)
	}
	if err := writeByte(w, 1); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, uint32(len(s))); err != nil {
		return err
	}
	buf := make([]byte, len(s))
	for i, b := range s {
		if b {
			buf[i] = 1
		}
	}
	_, err := w.Write(buf)
	return err
}

func readBools(r io.Reader) ([]bool, error) {
	present, err := readByte(r)
	if err != nil {
		return nil, err
	}
	if present == 0 {
		return nil, nil
	}
	var count uint32
	if err := binary.Read(r, binary.LittleEndian, &count); err != nil {
		return nil, err
	}
	if count > stateLimit {
		return nil, fmt.Errorf("implausible bool count %d", count)
	}
	buf, err := readFull(r, int64(count))
	if err != nil {
		return nil, err
	}
	out := make([]bool, count)
	for i, b := range buf {
		out[i] = b != 0
	}
	return out, nil
}
