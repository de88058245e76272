package mpi_test

import (
	"sync"
	"testing"

	"plshuffle/internal/mpi"
	"plshuffle/internal/transport/transporttest"
)

// BenchmarkAllreduceTCP4x570k is the all-reduce shaped like the traffic of
// the benchmark's gradsync workload: 4 ranks over real loopback TCP, each
// reducing the 569 872-float gradient of the 64-512-512-512-16 MLP on a
// reused buffer, world kept up across iterations. One op is one all-reduce
// on every rank; MB/s counts the buffer's bytes once.
func BenchmarkAllreduceTCP4x570k(b *testing.B) {
	const ranks, floats = 4, 569_872
	comms, cleanup, err := transporttest.TCP().Open(ranks)
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	run := func(iters int) {
		var wg sync.WaitGroup
		for _, c := range comms {
			wg.Add(1)
			go func(c *mpi.Comm) {
				defer wg.Done()
				err := mpi.Execute(c, func(c *mpi.Comm) error {
					buf := make([]float32, floats)
					for i := 0; i < iters; i++ {
						mpi.AllreduceWire(c, buf, mpi.OpSum)
					}
					c.Barrier()
					return nil
				})
				if err != nil {
					b.Error(err)
				}
			}(c)
		}
		wg.Wait()
	}
	run(3) // connections dialed, pools and scratch buffers at their steady size
	b.SetBytes(4 * floats)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
}
