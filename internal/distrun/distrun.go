// Package distrun is the one per-rank program every training world runs.
// Run plays one rank of a TCP world (cmd/plsrun -rank/-world, one process
// per rank, and each rank -launch forks); RunInproc plays every rank of a
// goroutine world in this process (cmd/plsrun -workers). Both hand each
// connected communicator to the same body: phase trace, per-rank telemetry,
// the run deadline, training, the gathered report on the lowest live rank,
// and close.
//
// Every rank receives the identical Options; datasets, models, and the
// initial partition are derived deterministically from the seed, so no
// state crosses ranks except the MPI traffic itself.
package distrun

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"os"
	"time"

	"plshuffle/internal/mpi"
	"plshuffle/internal/nn"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/telemetry"
	"plshuffle/internal/trace"
	"plshuffle/internal/train"
	"plshuffle/internal/transport"
	"plshuffle/internal/transport/tcp"
)

// Options describes one rank's share of a run. The training fields must be
// identical on every rank.
type Options struct {
	Rank       int
	World      int
	Rendezvous string
	// RendezvousListener, when non-nil on rank 0, is a pre-bound listener —
	// the launcher reserves the port race-free before forking workers.
	RendezvousListener net.Listener

	Dataset  string // paper dataset key (data.LoadProxy)
	Model    string // proxy model name (nn.ProxySpec)
	Strategy string // global | local | partial | corgi2
	Q        float64
	// DataDir is the ingested on-disk dataset (cmd/plsingest) the corgi2
	// strategy streams from; it replaces Dataset for that strategy.
	DataDir string
	// CacheBytes bounds each rank's node-local cache tier under corgi2
	// (0 = unlimited).
	CacheBytes int64
	// GroupEpochs is corgi2's epoch-group length: shard assignments
	// reshuffle across ranks every GroupEpochs epochs (0 = 1).
	GroupEpochs int
	Epochs      int
	Batch       int
	LR          float64
	Locality    float64
	LARS        bool
	Seed        uint64

	// WireCompress makes this rank compress the large data frames it sends
	// on the TCP transport (tcp.Config.Compress). Every rank decodes them,
	// so mixed worlds interoperate.
	WireCompress bool
	// WireDedup enables the exchange deduplication protocol
	// (train.Config.WireDedup): repeat samples travel as ID references.
	// Training results are bitwise identical; only wire volume changes.
	WireDedup bool
	// SampleEncoding selects the exchange sample wire format
	// (train.Config.SampleEncoding): "" or "fp32", "fp16exact".
	// Every rank must agree.
	SampleEncoding string

	// AutoQ enables the closed-loop shuffle controller
	// (train.Config.AutoQ; DESIGN.md §16): Q is retuned at every epoch
	// boundary from gathered deterministic stats, with the decision
	// broadcast so every rank re-plans identically. partial strategy only;
	// every rank must agree.
	AutoQ bool

	// Timeout is a deadline on the whole run, armed when the rank starts:
	// when it expires — typically because a peer died before reaching a
	// collective — the rank unwinds with an error naming its last completed
	// phase instead of blocking forever. Zero means no deadline.
	Timeout time.Duration

	// OnPeerFail selects what a rank does when the transport declares a
	// peer dead mid-run (train.Config.OnPeerFail; DESIGN.md §10):
	// "abort" (default) fails fast with a typed error naming the dead
	// rank, "degrade" completes the run among the survivors, the
	// disrupted epoch's exchange reset. Every rank must agree.
	OnPeerFail string

	// CheckpointDir, when non-empty, enables deterministic checkpointing
	// (train.Config.CheckpointDir; DESIGN.md §15): every rank commits an
	// atomic, CRC-checksummed snapshot of its replica state at epoch
	// boundaries. Every rank must agree (typically a shared filesystem
	// path, or per-host paths that survive the rank's restart).
	CheckpointDir string
	// CheckpointEvery snapshots every Nth epoch boundary (0 = every epoch).
	CheckpointEvery int
	// Resume restores the newest complete snapshot under CheckpointDir
	// before training (train.Config.Resume). The relaunched world must have
	// either the snapshot's full world size or exactly its live-group size
	// (a degraded world resumes shrunken; rank i adopts group member i's
	// state). The resumed run is bitwise identical to one that never
	// stopped.
	Resume bool

	// MaxWorld, when greater than World, makes the world elastic
	// (tcp.Config.MaxSize): rank slots [World, MaxWorld) stay reserved for
	// mid-run joiners, and the running members admit them at epoch
	// boundaries. Must be identical on every rank.
	MaxWorld int
	// Join connects this rank to an already-running elastic world instead
	// of bootstrapping one (tcp.Config.Join): the root assigns a free slot,
	// the members admit the rank at the next epoch boundary, and it trains
	// the remaining epochs as a full member. Rank is ignored; World and
	// MaxWorld must match the running world's.
	Join bool

	// TelemetryAddr, when non-empty, is the BASE listen address of the
	// per-rank telemetry endpoints (DESIGN.md §11): in every kind of world,
	// rank r serves /metrics, /trace, /healthz, and /debug/pprof on port+r,
	// and rank 0 additionally serves /cluster/metrics, the concatenated
	// exposition of every rank. Empty disables telemetry entirely — zero
	// observers, zero overhead beyond the always-on atomic counters.
	TelemetryAddr string

	// SaveWeights, when non-empty, is the file the reporting rank writes
	// the trained model to (nn.SaveWeights) after the run.
	SaveWeights string
}

// Run executes one rank of a TCP world to completion: connect to the world
// over the rendezvous, then run the per-rank program (runRank). out receives
// the run report on the reporting rank (other ranks write nothing).
func Run(o Options, out io.Writer) error {
	// Resolve the configuration before connecting: a bad option fails here,
	// not after the world has formed.
	cfg, err := o.prepare()
	if err != nil {
		return err
	}
	if o.Join && o.MaxWorld <= o.World {
		return fmt.Errorf("distrun: -join requires an elastic world (-max-world greater than -world, identical to the running members')")
	}

	bootstrap := 30 * time.Second
	if o.Timeout > 0 && o.Timeout < bootstrap {
		bootstrap = o.Timeout
	}
	comm, err := mpi.Connect(func(h transport.Handler) (transport.Conn, error) {
		return tcp.New(tcp.Config{
			Rank:               o.Rank,
			Size:               o.World,
			MaxSize:            o.MaxWorld,
			Join:               o.Join,
			Rendezvous:         o.Rendezvous,
			RendezvousListener: o.RendezvousListener,
			BootstrapTimeout:   bootstrap,
			// Liveness detection is always on for real multi-process runs: a
			// killed rank must surface as a typed PeerError within a few
			// seconds — feeding abort's fail-fast report or degrade's shrink —
			// never as an eternal block that only the watchdog breaks.
			HeartbeatInterval: 500 * time.Millisecond,
			DrainTimeout:      5 * time.Second,
			Compress:          o.WireCompress,
		}, h)
	})
	if err != nil {
		// One clear line, not a raw panic or a hang: the most common cause is
		// a rendezvous that never formed (rank 0 absent, wrong address, or a
		// rank missing from the world).
		return fmt.Errorf("distrun: rank %d/%d: bootstrap failed (rendezvous %s): %w", o.Rank, o.World, o.Rendezvous, err)
	}
	if o.Join {
		// A joiner's rank is assigned by the rendezvous root at bootstrap;
		// adopt it so telemetry ports and failure reports name the real slot.
		o.Rank = comm.Rank()
	}
	return runRank(comm, o, cfg, out)
}

// RunInproc runs a world of o.World goroutine ranks in this process over the
// inproc transport (mpi.Run). Every rank runs the same per-rank program as a
// TCP rank, so the world gets the same report, deadline and telemetry; out
// receives rank 0's report. A rank that fails aborts the world (MPI_Abort),
// and the returned error joins every rank's.
func RunInproc(o Options, out io.Writer) error {
	if o.World < 1 {
		return fmt.Errorf("distrun: a world needs at least one rank, got %d", o.World)
	}
	cfg, err := o.prepare()
	if err != nil {
		return err
	}
	return mpi.Run(o.World, func(c *mpi.Comm) error {
		ro, rout := o, io.Discard
		ro.Rank = c.Rank()
		if ro.Rank == 0 {
			rout = out
		}
		return runRank(c, ro, cfg, rout)
	})
}

// prepare checks the options every world refuses alike and resolves the
// training configuration the ranks share.
func (o Options) prepare() (train.Config, error) {
	if o.Resume && o.CheckpointDir == "" {
		return train.Config{}, fmt.Errorf("distrun: -resume requires -checkpoint-dir")
	}
	return o.TrainConfig()
}

// runRank is the per-rank program of every world, on a connected comm: it
// records phase trace events, serves the rank's telemetry, runs trainRank
// under the watchdog, and closes the comm.
func runRank(comm *mpi.Comm, o Options, cfg train.Config, out io.Writer) error {
	// Every rank records phase trace events so a watchdog report can name
	// where each rank last made progress, not just that it stopped.
	rec := trace.NewRecorder()
	cfg.Trace = rec

	// Telemetry plane (DESIGN.md §11): one HTTP server per rank on
	// base-port+rank, sharing the registry the trainer will populate. The
	// health view reflects the transport's peer-failure registry, so
	// /healthz flips to 503 the moment a peer is declared dead.
	if o.TelemetryAddr != "" {
		addr, aerr := telemetry.OffsetAddr(o.TelemetryAddr, o.Rank)
		if aerr != nil {
			comm.Close()
			return fmt.Errorf("distrun: rank %d: telemetry: %w", o.Rank, aerr)
		}
		cfg.Telemetry = telemetry.NewRegistry()
		sc := telemetry.ServerConfig{
			Addr:     addr,
			Registry: cfg.Telemetry,
			Trace:    rec,
			Health: func() telemetry.Health {
				fp := comm.FailedPeers()
				return telemetry.Health{OK: len(fp) == 0, Rank: o.Rank, FailedPeers: fp}
			},
		}
		if o.Rank == 0 && o.World > 1 {
			targets := telemetryTargets(o.TelemetryAddr, o.World)
			sc.ClusterTargets = func() []string { return targets }
		}
		tsrv, serr := telemetry.NewServer(sc)
		if serr != nil {
			comm.Close()
			return fmt.Errorf("distrun: rank %d: telemetry listen %s: %w", o.Rank, addr, serr)
		}
		defer tsrv.Close()
	}

	done := make(chan error, 1)
	go func() {
		done <- mpi.Execute(comm, func(c *mpi.Comm) error {
			if err := trainRank(c, o, cfg, out); err != nil {
				return err
			}
			// Quiesce before teardown: no rank may close its transport while
			// peers still expect frames.
			c.Barrier()
			return nil
		})
	}()

	var err error
	if o.Timeout > 0 {
		select {
		case err = <-done:
		case <-time.After(o.Timeout):
			// Break the rank out of whatever collective it is stuck in, then
			// tear the transport down so peers unstick too.
			comm.Abort()
			select {
			case <-done:
			case <-time.After(5 * time.Second):
			}
			comm.Close()
			return fmt.Errorf("distrun: rank %d: run did not finish within -timeout %v (last completed phase: %s) — a peer likely exited before reaching a collective; aborting instead of hanging",
				o.Rank, o.Timeout, lastPhase(rec))
		}
	} else {
		err = <-done
	}
	if pe, ok := mpi.PeerErrorFrom(err); ok {
		// Name the culprit in one line so a multi-process failure report
		// reads as a story, not a stack of timeouts.
		err = fmt.Errorf("distrun: rank %d: peer rank %d died during %s (last completed phase here: %s): %w",
			o.Rank, pe.Rank, pe.Phase, lastPhase(rec), err)
	} else if err != nil {
		// A rank unwound by a failing peer's abort (a goroutine world's
		// first expired deadline aborts them all) still says where it was.
		err = fmt.Errorf("distrun: rank %d (last completed phase: %s): %w", o.Rank, lastPhase(rec), err)
	}
	if cerr := comm.Close(); err == nil && cerr != nil {
		if _, isPeer := transport.AsPeerError(cerr); isPeer {
			// err == nil means this rank cleared the final barrier, so every
			// peer was alive through the whole run. A peer "failure" that
			// surfaces only at close is therefore shutdown ordering — a rank
			// that finished and exited before our last heartbeat reached it —
			// or, in degrade mode, the sticky record of a death the run
			// already tolerated. Neither is a failure of this rank.
			return nil
		}
		err = fmt.Errorf("distrun: rank %d: close: %w", o.Rank, cerr)
	}
	return err
}

// lastPhase names the most recently recorded trace phase, e.g.
// "exchange (epoch 2)", or "bootstrap (no phase completed)" for a rank
// that stalled before finishing its first epoch.
func lastPhase(rec *trace.Recorder) string {
	events := rec.Events()
	if len(events) == 0 {
		return "bootstrap (no phase completed)"
	}
	// Events() sorts by (rank, epoch, phase) with phases in execution
	// order; the frontier is the last event of the maximum epoch. Scanning
	// explicitly keeps this correct even for multi-rank recorders.
	last := events[0]
	for _, e := range events[1:] {
		if e.Epoch >= last.Epoch {
			last = e
		}
	}
	return fmt.Sprintf("%s (epoch %d)", last.Phase, last.Epoch)
}

// telemetryTargets derives every rank's scrape URL from the base address
// using the same port-offset rule each rank applies to itself, so rank 0's
// /cluster/metrics can aggregate the whole world. Unspecified listen hosts
// (empty, 0.0.0.0, ::) are scraped via loopback — the launcher's workers
// are local processes.
func telemetryTargets(base string, world int) []string {
	targets := make([]string, 0, world)
	for r := 0; r < world; r++ {
		addr, err := telemetry.OffsetAddr(base, r)
		if err != nil {
			continue
		}
		host, port, err := net.SplitHostPort(addr)
		if err != nil {
			continue
		}
		switch host {
		case "", "0.0.0.0", "::":
			host = "127.0.0.1"
		}
		targets = append(targets, "http://"+net.JoinHostPort(host, port))
	}
	return targets
}

// trainRank trains the rank, gathers balance/peak/byte accounting at the
// lowest surviving rank, and prints the report (and writes -save-weights)
// there.
func trainRank(c *mpi.Comm, o Options, cfg train.Config, out io.Writer) error {
	strat, ds := cfg.Strategy, cfg.Dataset
	var rr *train.RankResult
	var err error
	if o.Join {
		// A joiner parks until the members admit it at an epoch boundary,
		// then trains the remaining epochs as a full member; its post-join
		// group is the grown world, so the gather/report path below works
		// unchanged.
		rr, err = train.JoinRank(c, cfg)
	} else {
		rr, err = train.RunRank(c, cfg)
	}
	if err != nil {
		return err
	}
	// Cross-rank accounting: final local sample counts (the balance
	// invariant), storage peaks, and real wire traffic. After a degraded
	// run the collective group is the survivors, so gather at the lowest
	// surviving rank — rank 0 itself may be the one that died.
	live := c.GroupRanks()
	root := live[0]
	// One fixed vector per rank, gathered once.
	const (
		vSamples = iota // final local sample count
		vPeak           // storage high-water mark
		vSent           // transport wire bytes
		vRecv
		vHits // cache tier
		vMisses
		vEvictions
		vPrefetch
		vPFSRead
		vExchWire // exchange, summed over the rank's epochs
		vDedupHits
		vDedupSaved
		vLen
	)
	st := c.Transport().Stats()
	vec := make([]int64, vLen)
	vec[vSamples], vec[vPeak] = int64(rr.FinalLocalSamples), rr.PeakStorageBytes
	vec[vSent], vec[vRecv] = st.BytesSent, st.BytesRecv
	if cs := rr.Cache; cs != nil {
		vec[vHits], vec[vMisses], vec[vEvictions] = cs.Hits, cs.Misses, cs.Evictions
		vec[vPrefetch], vec[vPFSRead] = cs.PrefetchBytes, cs.PFSReadBytes
	}
	for _, e := range rr.Epochs {
		vec[vExchWire] += e.ExchangeWireBytes
		vec[vDedupHits] += int64(e.DedupHits)
		vec[vDedupSaved] += e.DedupBytesSaved
	}
	all := mpi.Gather(c, vec, root)
	if c.Rank() != root {
		return nil
	}
	// Column sums over the live ranks; the peak is a maximum instead.
	sum := make([]int64, vLen)
	var peak int64
	for g := range live {
		row := all[g*vLen : (g+1)*vLen]
		for i, v := range row {
			sum[i] += v
		}
		peak = max(peak, row[vPeak])
	}

	over := "inproc"
	if st.Wire {
		over = "tcp"
	}
	fmt.Fprintf(out, "%s on %s proxy, %d ranks over %s, strategy %s (locality %.2f)\n",
		o.Model, o.DatasetLabel(cfg), c.Size(), over, strat, o.Locality)
	fmt.Fprintf(out, "%-6s  %-8s  %-8s  %-14s\n", "epoch", "loss", "val-acc", "exchange-wire")
	for _, e := range rr.Epochs {
		fmt.Fprintf(out, "%-6d  %-8.4f  %-8.4f  %-14d\n", e.Epoch+1, e.TrainLoss, e.ValAcc, e.ExchangeWireBytes)
	}

	final := rr.Epochs[len(rr.Epochs)-1]
	fmt.Fprintf(out, "final=%.4f peak-storage/rank=%d bytes  wire sent=%d recv=%d bytes\n",
		final.ValAcc, peak, sum[vSent], sum[vRecv])
	if strat.Kind == shuffle.PartialLocal {
		fmt.Fprintf(out, "exchange wire=%d bytes  dedup hits=%d saved=%d bytes\n",
			sum[vExchWire], sum[vDedupHits], sum[vDedupSaved])
	}
	if o.AutoQ {
		// The controller's per-epoch trajectory: the fraction each epoch
		// planned with and the decision that set it. Two same-seed auto-Q
		// worlds print identical lines — the decisions are deterministic.
		fmt.Fprintf(out, "controller q trajectory:")
		for _, e := range rr.Epochs {
			fmt.Fprintf(out, " %g(%s)", e.ControllerQ, e.ControllerReason)
		}
		fmt.Fprintln(out)
	}
	// Checksum of the trained weights (CRC32C over the float bits, LE): two
	// same-seed worlds must print the same value regardless of -wire-compress
	// / -wire-dedup / -sample-encoding=fp16exact — the cheap handle on the
	// bitwise-determinism guarantee across real processes.
	h := crc32.New(crc32.MakeTable(crc32.Castagnoli))
	var wb [4]byte
	for _, p := range rr.FinalParams {
		for _, v := range p.W {
			binary.LittleEndian.PutUint32(wb[:], math.Float32bits(v))
			h.Write(wb[:])
		}
	}
	fmt.Fprintf(out, "weights crc32c=%08x\n", h.Sum32())
	if o.SaveWeights != "" {
		if err := saveWeights(o.SaveWeights, rr.FinalModel); err != nil {
			return fmt.Errorf("distrun: -save-weights: %w", err)
		}
		fmt.Fprintf(out, "weights written to %s\n", o.SaveWeights)
	}

	if strat.Kind == shuffle.Corgi2 {
		fmt.Fprintf(out, "cache: hits=%d misses=%d evictions=%d prefetch=%d bytes pfs-read=%d bytes\n",
			sum[vHits], sum[vMisses], sum[vEvictions], sum[vPrefetch], sum[vPFSRead])
	}

	// Balance check: for the local-family strategies every rank must end the
	// run holding its fair share, N/M rounded either way (Algorithm 1's
	// slot-balanced exchange guarantees it; GS holds no local samples, and
	// corgi2 balances shards rather than samples). A run that lost ranks
	// completed among the survivors: the dead took their stores with them,
	// the survivors re-dealt what was left, and the share is of that.
	n, m := int64(len(ds.Train)), int64(len(live))
	if m < int64(c.Size()) {
		reset := 0
		for _, e := range rr.Epochs {
			if (e.Disrupted || e.Skipped) && e.EffectiveQ == 0 {
				reset++
			}
		}
		fmt.Fprintf(out, "DEGRADED: %d/%d ranks survived, %d epochs reset, final Q=%.3f (-q %.3f)\n",
			m, c.Size(), reset, final.EffectiveQ, o.Q)
		n = sum[vSamples]
	}
	if strat.Kind == shuffle.Local || strat.Kind == shuffle.PartialLocal {
		lo, hi := n/m, (n+m-1)/m
		for g, r := range live {
			if held := all[g*vLen+vSamples]; held < lo || held > hi {
				return fmt.Errorf("distrun: rank %d ended with %d samples, want N/M in [%d,%d] (N=%d M=%d)",
					r, held, lo, hi, n, m)
			}
		}
		fmt.Fprintf(out, "sample balance OK: every rank holds N/M = %d..%d of %d samples\n", lo, hi, n)
	}
	return nil
}

// saveWeights writes the trained model to path (nn.SaveWeights).
func saveWeights(path string, m *nn.Sequential) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := nn.SaveWeights(f, m); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
