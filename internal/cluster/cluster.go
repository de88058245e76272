// Package cluster describes the machines of the paper's study: the fifteen
// TOP500 systems whose node-local storage Figure 1 compares against deep
// learning dataset sizes, and the two experiment platforms (ABCI and
// Fugaku) with the storage/network parameters the performance model needs.
package cluster

const (
	// KiB etc. are byte units used throughout the cluster tables.
	KiB = int64(1) << 10
	MiB = int64(1) << 20
	GiB = int64(1) << 30
	TiB = int64(1) << 40
)

// System is one row of Figure 1: a supercomputer's per-node dedicated
// storage. Exactly one of NodeLocalBytes / NetworkFlashBytes is typically
// non-zero: dark-blue bars are SSDs physically in the compute nodes,
// light-blue bars are network-attached flash (burst buffers) prorated per
// node. Systems with neither have zero capacity.
type System struct {
	Name              string
	NodeLocalBytes    int64 // SSD physically in the compute node
	NetworkFlashBytes int64 // per-node share of network-attached flash
	DLDesigned        bool  // starred in Figure 1: designed for DL workloads
}

// PerNodeBytes returns the node's usable dedicated capacity.
func (s System) PerNodeBytes() int64 { return s.NodeLocalBytes + s.NetworkFlashBytes }

// Fits reports whether a dataset of the given size can be replicated onto
// one node's dedicated storage — the feasibility question Figure 1 poses.
func (s System) Fits(datasetBytes int64) bool { return s.PerNodeBytes() >= datasetBytes }

// Top500Systems returns the fifteen systems of Figure 1 (TOP500, November
// 2020 snapshot). Capacities are approximate public figures; the paper's
// argument depends only on their order of magnitude relative to dataset
// sizes. Fugaku's entry is the 50 GB per-node slice of the 1.6 TB SSD
// shared by each group of 16 nodes (Section II).
func Top500Systems() []System {
	return []System{
		{Name: "Fugaku", NodeLocalBytes: 50 * GiB},
		{Name: "Summit", NodeLocalBytes: 1600 * GiB},
		{Name: "Sierra", NodeLocalBytes: 1600 * GiB},
		{Name: "Sunway TaihuLight"},
		{Name: "Selene", NodeLocalBytes: 3500 * GiB, DLDesigned: true},
		{Name: "Tianhe-2A"},
		{Name: "JUWELS Booster"},
		{Name: "HPC5", NodeLocalBytes: 1600 * GiB},
		{Name: "Frontera", NetworkFlashBytes: 72 * GiB},
		{Name: "Dammam-7"},
		{Name: "Marconi-100", NodeLocalBytes: 1600 * GiB},
		{Name: "Piz Daint", NetworkFlashBytes: 80 * GiB},
		{Name: "Trinity", NetworkFlashBytes: 190 * GiB},
		{Name: "ABCI", NodeLocalBytes: 1600 * GiB, DLDesigned: true},
		{Name: "Lassen", NodeLocalBytes: 1600 * GiB},
	}
}

// DatasetSize is one red horizontal line of Figure 1.
type DatasetSize struct {
	Name  string
	Bytes int64
}

// Figure1Datasets returns the dataset-size lines of Figure 1, top to
// bottom (Section II gives the headline numbers; the rest are the cited
// datasets' published sizes, approximate).
func Figure1Datasets() []DatasetSize {
	return []DatasetSize{
		{Name: "Google OpenImages", Bytes: 18 * TiB},
		{Name: "JFT-300M (Sun et al.)", Bytes: 30 * TiB},
		{Name: "DeepCAM", Bytes: 8396 * GiB},
		{Name: "C4 (cleaned Common Crawl)", Bytes: 7 * TiB},
		{Name: "Open Catalyst 2020", Bytes: 5 * TiB},
		{Name: "YouTube-8M", Bytes: 1536 * GiB},
		{Name: "ImageNet-21K", Bytes: 1126 * GiB},
		{Name: "ImageNet-1K", Bytes: 140 * GiB},
		{Name: "FieldSafe", Bytes: 80 * GiB},
	}
}

// Machine holds the performance-model parameters for an experiment
// platform. The effective rates are calibrated against the paper's own
// measurements (see internal/perfmodel) rather than hardware peaks: deep
// learning I/O is small-file and decode-bound, so effective per-worker
// rates sit far below device peaks.
type Machine struct {
	Name           string
	WorkersPerNode int
	Nodes          int

	// Node-local storage.
	LocalSSDBytes int64   // dedicated capacity per worker
	LocalReadBW   float64 // effective per-worker sample read+decode, bytes/s (small files)
	LocalSeqBW    float64 // effective per-worker large-file sequential read, bytes/s

	// Parallel file system.
	PFSPeakBW       float64 // theoretical aggregate peak, bytes/s (Fig 7b red line)
	PFSEffectiveBW  float64 // effective aggregate under DL random small reads
	PFSPerClientBW  float64 // per-client ceiling (metadata/small-file bound)
	PFSMetadataCost float64 // seconds per file open on the PFS
	// Straggler model: slowest client's I/O time = average * (1 +
	// StragglerCoef*sqrt(clients)). The paper measured 11.9 s fastest vs
	// 142 s slowest at 512 workers on ABCI.
	StragglerCoef float64

	// Interconnect, for the personalized all-to-all sample exchange and
	// the gradient allreduce. The random pairwise exchange is "sensitive
	// to network congestion when scaling up" (Section V-F): both the
	// per-message cost and the bandwidth share degrade with log2(M), and a
	// per-rank synchronization cost grows linearly with the world size.
	InjectionBW      float64 // per-worker injection bandwidth, bytes/s
	ExchangeCongest  float64 // congestion: effective rates /= 1 + coef*log2(M)
	ExchangeLatency  float64 // per-message base cost, seconds
	ExchangeSyncCost float64 // per-rank per-epoch synchronization cost, seconds
	AllreduceBW      float64 // effective allreduce bandwidth, bytes/s
}

// ABCI returns the AI Bridging Cloud Infrastructure parameters
// (Section V-A): 1,088 nodes, 4 V100 GPUs each (one worker per GPU),
// 1.6 TB local NVMe, 35 PB Lustre.
func ABCI() Machine {
	return Machine{
		Name:             "ABCI",
		WorkersPerNode:   4,
		Nodes:            1088,
		LocalSSDBytes:    400 * GiB, // 1.6 TB shared by 4 workers
		LocalReadBW:      34e6,      // calibrated: 274 MB epoch share read in ~8 s (Fig 10)
		LocalSeqBW:       1.5e9,
		PFSPeakBW:        100e9,
		PFSEffectiveBW:   7.5e9, // effective aggregate under DL random small reads
		PFSPerClientBW:   12e6,  // calibrated: ~20-26 s average GS read at 512 workers
		PFSMetadataCost:  0.0015,
		StragglerCoef:    0.28,  // calibrated: ~7x avg-to-slowest spread at 512 workers
		InjectionBW:      3.1e9, // IB EDR 100 Gb/s per node / 4 workers
		ExchangeCongest:  0.55,
		ExchangeLatency:  1e-3,
		ExchangeSyncCost: 2e-3,
		AllreduceBW:      8e9,
	}
}

// Fugaku returns the Fugaku parameters (Section V-A): 158,976 A64FX nodes,
// 4 MPI ranks per node, a 1.6 TB SSD shared by 16 nodes exposed as ~50 GB
// per node ("local mode", so 12.5 GB per worker), 150 PB Lustre.
func Fugaku() Machine {
	return Machine{
		Name:             "Fugaku",
		WorkersPerNode:   4,
		Nodes:            158976,
		LocalSSDBytes:    12*GiB + 512*MiB, // 50 GB node slice / 4 workers
		LocalReadBW:      25e6,             // shared SSD, smaller per-worker share
		LocalSeqBW:       600e6,
		PFSPeakBW:        1.5e12,
		PFSEffectiveBW:   20e9,
		PFSPerClientBW:   8e6,
		PFSMetadataCost:  0.002,
		StragglerCoef:    0.30,
		InjectionBW:      6.8e9 / 4, // TofuD ~6.8 GB/s injection per node
		ExchangeCongest:  0.50,
		ExchangeLatency:  1.5e-3,
		ExchangeSyncCost: 2.5e-3,
		AllreduceBW:      6e9,
	}
}
