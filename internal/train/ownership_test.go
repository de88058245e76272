package train

// The exchange recycles the feature arrays of samples it sent away into the
// next epoch's decodes (DESIGN.md §13.2). The arrays it may recycle are the
// ones it decoded itself: the caller's dataset seeds every store and is
// read-only to training, whatever the wire mode and whatever dies.

import (
	"hash/crc32"
	"testing"

	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/transport/faultinject"
	"plshuffle/internal/transport/tcp"
	"plshuffle/internal/transport/transporttest"
)

// datasetCRCs returns the crc32c of every Train and Val feature array, in
// order.
func datasetCRCs(ds *data.Dataset) []uint32 {
	table := crc32.MakeTable(crc32.Castagnoli)
	var out []uint32
	for _, split := range [][]data.Sample{ds.Train, ds.Val} {
		for _, s := range split {
			out = append(out, crc32.Checksum(data.BytesOf(s.Features), table))
		}
	}
	return out
}

// TestTrainerNeverWritesDataset trains three 4-rank worlds over TCP on one
// dataset — PLS on the fp32 wire, PLS on the lean wire (dedup, fp16exact,
// compression), and PLS under degrade with a rank killed mid-exchange — and
// requires every feature array of the dataset to hash the same before and
// after each. The lean world must also end on the fp32 world's weights, bit
// for bit: an array recycled while a dedup segment still held it would feed
// a later reference another sample's features.
func TestTrainerNeverWritesDataset(t *testing.T) {
	if testing.Short() {
		t.Skip("three training worlds over real sockets in -short mode")
	}
	const (
		workers = 4
		q       = 0.5
		epochs  = 8
		samples = 384
	)
	ds := fp16GridDataset(t, samples)
	want := datasetCRCs(ds)
	requireUntouched := func(run string) {
		t.Helper()
		for i, c := range datasetCRCs(ds) {
			if c != want[i] {
				t.Fatalf("%s: feature array %d of the dataset changed (crc32c %08x, was %08x)", run, i, c, want[i])
			}
		}
	}

	train := func(lean bool) []float32 {
		cfg := baseConfig(t, ds, workers, shuffle.Partial(q))
		cfg.Epochs = epochs
		backend := transporttest.TCP()
		if lean {
			cfg.WireDedup = true
			cfg.SampleEncoding = "fp16exact"
			backend = transporttest.TCPWrapped("tcp-lean", nil,
				func(rank int, c *tcp.Config) { c.Compress = true })
		}
		var weights []float32
		err := backend.Run(workers, func(c *mpi.Comm) error {
			rr, err := RunRank(c, cfg)
			if err == nil && c.Rank() == 0 {
				weights = flatWeights(rr.FinalParams)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
		return weights
	}
	plain := train(false)
	requireUntouched("PLS fp32")
	lean := train(true)
	requireUntouched("PLS lean")
	requireBitwiseEqual(t, "lean wire against fp32 wire", plain, lean)

	const victim, killEpoch = 1, 2
	cfg := baseConfig(t, ds, workers, shuffle.Partial(q))
	cfg.Epochs = epochs
	cfg.OnPeerFail = "degrade"
	scripts := chaosScripts(workers, victim, killEpoch, false)
	conns := make([]*faultinject.Conn, workers)
	b := transporttest.TCPWrapped("tcp-degrade", chaosWrap(scripts, conns), chaosTCPConfig)
	rrs, errs := runChaosWorld(t, b, workers, cfg)
	assertChaosSurvivors(t, rrs, errs, workers, victim, killEpoch, epochs, samples, q)
	requireUntouched("PLS degrade with a killed rank")
}
