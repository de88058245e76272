package shard

import (
	"path/filepath"
	"testing"
)

// BenchmarkShardReadInto measures the zero-copy, in-place sample read — the
// innermost storage hot path every corgi2 training iteration pays per
// sample. Must stay allocation-free.
func BenchmarkShardReadInto(b *testing.B) {
	ds := genDataset(b, 256)
	path := filepath.Join(b.TempDir(), FileName(0))
	if _, err := WriteShard(path, 0, ds.Train); err != nil {
		b.Fatal(err)
	}
	sh, err := Open(path)
	if err != nil {
		b.Fatal(err)
	}
	defer sh.Close()
	feat := make([]float32, len(ds.Train[0].Features))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, _, _, err := sh.ReadInto(i%sh.Count(), feat); err != nil {
			b.Fatal(err)
		}
	}
}
