package transporttest_test

import (
	"testing"

	"plshuffle/internal/mpi"
	"plshuffle/internal/transport/transporttest"
)

// runAllgatherVarLenBench measures all-to-all throughput over one backend:
// every rank sends elems float32s to every other rank per AllgatherVarLen,
// the exchange scheduler's every-rank-to-every-rank wire pattern. Comparing
// the inproc and tcp numbers isolates the cost of the real wire path (codec
// + framing + sockets) against pure in-memory delivery.
func runAllgatherVarLenBench(b *testing.B, bk transporttest.Backend, ranks, elems int) {
	b.SetBytes(int64(ranks * (ranks - 1) * elems * 4)) // payload bytes crossing rank boundaries per op
	err := bk.Run(ranks, func(c *mpi.Comm) error {
		send := make([]float32, elems)
		for i := range send {
			send[i] = float32(c.Rank()*elems + i)
		}
		c.Barrier()
		for i := 0; i < b.N; i++ {
			out := mpi.AllgatherVarLen(c, send)
			if len(out[0]) != elems {
				b.Errorf("AllgatherVarLen returned %d elements from rank 0, want %d", len(out[0]), elems)
			}
		}
		c.Barrier()
		return nil
	})
	if err != nil {
		b.Fatal(err)
	}
}

func BenchmarkAllgatherVarLenInproc(b *testing.B) {
	runAllgatherVarLenBench(b, transporttest.Inproc(), 4, 16<<10)
}
func BenchmarkAllgatherVarLenTCP(b *testing.B) {
	runAllgatherVarLenBench(b, transporttest.TCP(), 4, 16<<10)
}
