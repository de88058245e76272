package data

import (
	"encoding/binary"
	"hash/crc32"
	"math"
	"runtime"
	"testing"

	"plshuffle/internal/rng"
)

// serialGenerate is Generate as one walk of one stream: class means, then
// every sample in ID order. It is the reference the parallel synthesis must
// reproduce bit for bit, whatever the worker count and schedule.
func serialGenerate(sp SyntheticSpec) *Dataset {
	r := rng.New(sp.Seed)
	dim := sp.FeatureDim
	scale := sp.ClassSep / float32(math.Sqrt(float64(dim)))
	means := make([][]float32, sp.Classes)
	for c := range means {
		means[c] = make([]float32, dim)
		for j := range means[c] {
			means[c][j] = r.NormFloat32() * scale
		}
	}
	mk := func(id int) Sample {
		c := id % sp.Classes
		f := make([]float32, dim)
		for j := range f {
			f[j] = means[c][j] + r.NormFloat32()*sp.NoiseStd
		}
		return Sample{ID: id, Label: c, Features: f, Bytes: sp.Bytes}
	}
	d := &Dataset{Name: sp.Name, Classes: sp.Classes, FeatureDim: dim, SampleBytes: sp.Bytes,
		Train: make([]Sample, sp.NumSamples), Val: make([]Sample, sp.NumVal)}
	for i := range d.Train {
		d.Train[i] = mk(i)
	}
	for i := range d.Val {
		d.Val[i] = mk(sp.NumSamples + i)
	}
	return d
}

// datasetCRC is the crc32c of every sample's ID, label and feature bits,
// training split then validation split.
func datasetCRC(d *Dataset) uint32 {
	var buf []byte
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	for _, split := range [][]Sample{d.Train, d.Val} {
		for _, s := range split {
			buf = binary.LittleEndian.AppendUint64(buf[:0], uint64(s.ID))
			buf = binary.LittleEndian.AppendUint64(buf, uint64(s.Label))
			for _, f := range s.Features {
				buf = binary.LittleEndian.AppendUint32(buf, math.Float32bits(f))
			}
			h.Write(buf)
		}
	}
	return h.Sum32()
}

// TestGenerateGolden pins the bits Generate returns on the benchmark's three
// sample shapes (its classes, noise and class separations, at fewer
// samples) and on a ragged spec smaller than one chunk with an odd feature
// count. Each spec spans several chunks and ends in a partial one, and the
// validation split starts mid-chunk. The values were taken from the serial
// generator; they must hold at every GOMAXPROCS.
func TestGenerateGolden(t *testing.T) {
	specs := []struct {
		sp   SyntheticSpec
		want uint32
	}{
		{SyntheticSpec{Name: "storage", NumSamples: 700, NumVal: 90, Classes: 16,
			FeatureDim: 4096, ClassSep: 12, NoiseStd: 1, Bytes: 4 * 4096, Seed: 1}, 0x7ddff47d},
		{SyntheticSpec{Name: "exchange", NumSamples: 1000, NumVal: 100, Classes: 16,
			FeatureDim: 2048, ClassSep: 16, NoiseStd: 1, Bytes: 4 * 2048, Seed: 1}, 0x934a3416},
		{SyntheticSpec{Name: "compute", NumSamples: 9000, NumVal: 1000, Classes: 16,
			FeatureDim: 64, ClassSep: 6, NoiseStd: 1, Bytes: 4 * 64, Seed: 1}, 0x51ed9c57},
		{SyntheticSpec{Name: "ragged", NumSamples: 13, NumVal: 3, Classes: 3,
			FeatureDim: 13, ClassSep: 2, NoiseStd: 0.5, Bytes: 52, Seed: 2022}, 0x6209d34d},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 4} {
		runtime.GOMAXPROCS(procs)
		for _, tc := range specs {
			d, err := Generate(tc.sp)
			if err != nil {
				t.Fatal(err)
			}
			if got := datasetCRC(d); got != tc.want {
				t.Errorf("GOMAXPROCS=%d %s: crc32c %08x, want %08x", procs, tc.sp.Name, got, tc.want)
			}
		}
	}
}

// TestGenerateMatchesSerialStream: Generate is the serial stream bit for bit
// when the sample count falls one short of a chunk boundary, on it, one past
// it and several chunks on, for one-feature samples (chunks of 2^18) as for
// wide ones (chunks of 64), at every GOMAXPROCS.
func TestGenerateMatchesSerialStream(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, dim := range []int{1, 5, 4096} {
		per := chunkDraws / (2 * dim)
		for _, total := range []int{per - 1, per, per + 1, 3*per + 7} {
			sp := SyntheticSpec{Name: "s", NumSamples: total - total/3, NumVal: total / 3, Classes: 7,
				FeatureDim: dim, ClassSep: 3, NoiseStd: 0.75, Bytes: 9, Seed: uint64(dim*total + 1)}
			want := serialGenerate(sp)
			for _, procs := range []int{1, 2, 4} {
				runtime.GOMAXPROCS(procs)
				got, err := Generate(sp)
				if err != nil {
					t.Fatal(err)
				}
				for split, pair := range [][2][]Sample{{got.Train, want.Train}, {got.Val, want.Val}} {
					for i, w := range pair[1] {
						g := pair[0][i]
						if g.ID != w.ID || g.Label != w.Label || g.Bytes != w.Bytes || len(g.Features) != len(w.Features) {
							t.Fatalf("dim=%d total=%d GOMAXPROCS=%d split %d sample %d: %+v, want %+v",
								dim, total, procs, split, i, g, w)
						}
						for j := range w.Features {
							if math.Float32bits(g.Features[j]) != math.Float32bits(w.Features[j]) {
								t.Fatalf("dim=%d total=%d GOMAXPROCS=%d split %d sample %d feature %d differs",
									dim, total, procs, split, i, j)
							}
						}
					}
				}
			}
		}
	}
}
