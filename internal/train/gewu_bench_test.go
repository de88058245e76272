package train

import (
	"sync"
	"testing"

	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/tensor"
	"plshuffle/internal/transport/transporttest"
)

// BenchmarkGEWUStepOverTCP is one training step of the benchmark's gradsync
// workload without its data path: 4 ranks over real loopback TCP, the
// 64-512-512-512-16 MLP with batch norm at b=8, forward, then backward with
// the bucket hook launching each bucket's all-reduce and owner step, then
// the drain that waits for every bucket. wait-ns/op is rank 0's exposed
// wait in the drain, the number the gradient path exists to shrink.
func BenchmarkGEWUStepOverTCP(b *testing.B) {
	const ranks, batch, features, classes = 4, 8, 64, 16
	ds, err := data.Generate(data.SyntheticSpec{
		Name: "gewu-bench", NumSamples: 64, NumVal: 16, Classes: classes,
		FeatureDim: features, ClassSep: 5, NoiseStd: 1.0, Bytes: 1000, Seed: 99,
	})
	if err != nil {
		b.Fatal(err)
	}
	cfg := baseConfig(b, ds, ranks, shuffle.GlobalShuffling())
	cfg.Model = nn.ModelSpec{Name: "gewu-bench", Hidden: []int{512, 512, 512}, BatchNorm: true}.
		WithData(features, classes)
	cfg.BatchSize = batch
	cfg.BaseLR = 0.05
	cfg.OverlapGrads = true

	comms, cleanup, err := transporttest.TCP().Open(ranks)
	if err != nil {
		b.Fatal(err)
	}
	defer cleanup()
	cfg, err = resolveConfig(comms[0], cfg)
	if err != nil {
		b.Fatal(err)
	}
	workers := make([]*worker, ranks)
	for r, c := range comms {
		if workers[r], err = newWorker(c, cfg, nil, nil); err != nil {
			b.Fatal(err)
		}
	}
	var wait0 int64
	run := func(iters int) {
		var wg sync.WaitGroup
		for _, w := range workers {
			wg.Add(1)
			go func(w *worker) {
				defer wg.Done()
				err := mpi.Execute(w.comm, func(c *mpi.Comm) error {
					x := tensor.New(batch, features)
					for i := range x.Data {
						x.Data[i] = float32((i*7+c.Rank()*13)%29)/29 - 0.5
					}
					y := make([]int, batch)
					for i := range y {
						y[i] = (i + c.Rank()) % classes
					}
					waited := w.tm.GEWUWaitNs.Load()
					w.lr = 0.05
					for i := 0; i < iters; i++ {
						w.arena.Reset()
						w.loss.Forward(w.model.Forward(x, true), y)
						w.model.BackwardWithHook(w.loss.Backward(), w.bucketHook)
						w.drainBuckets()
					}
					if c.Rank() == 0 {
						wait0 = w.tm.GEWUWaitNs.Load() - waited
					}
					c.Barrier()
					return nil
				})
				if err != nil {
					b.Error(err)
				}
			}(w)
		}
		wg.Wait()
	}
	run(3)
	b.ReportAllocs()
	b.ResetTimer()
	run(b.N)
	b.ReportMetric(float64(wait0)/float64(b.N), "wait-ns/op")
}
