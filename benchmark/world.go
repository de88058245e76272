package main

import (
	"errors"
	"fmt"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"plshuffle/internal/mpi"
	"plshuffle/internal/train"
	"plshuffle/internal/transport"
	"plshuffle/internal/transport/tcp"
)

// world is a bootstrapped 4-rank world: goroutine ranks in this process,
// real loopback TCP between them. It is the distrun.Run path without flags
// and telemetry, heartbeats off. A world serves one execute and is closed
// by it.
type world struct {
	comms     []*mpi.Comm
	bootstrap time.Duration
}

// openWorld runs the rendezvous bootstrap of all ranks concurrently.
func openWorld(compress bool) (*world, error) {
	t0 := time.Now()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("reserving rendezvous port: %w", err)
	}
	w := &world{comms: make([]*mpi.Comm, ranks)}
	errs := make([]error, ranks)
	var wg sync.WaitGroup
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := tcp.Config{Rank: rank, Size: ranks, Rendezvous: ln.Addr().String(),
				BootstrapTimeout: 30 * time.Second, Compress: compress}
			if rank == 0 {
				cfg.RendezvousListener = ln
			}
			w.comms[rank], errs[rank] = mpi.Connect(func(h transport.Handler) (transport.Conn, error) {
				return tcp.New(cfg, h)
			})
		}(r)
	}
	wg.Wait() // bounded by BootstrapTimeout
	if err := errors.Join(errs...); err != nil {
		w.closeAll()
		return nil, fmt.Errorf("tcp bootstrap: %w", err)
	}
	w.bootstrap = time.Since(t0)
	return w, nil
}

func (w *world) closeAll() {
	for _, c := range w.comms {
		if c != nil {
			c.Close()
		}
	}
}

// Rank progress, for the watchdog report.
const (
	stageRunning  int32 = iota // inside fn
	stageReturned              // fn returned, inside Barrier
	stageQuiesced              // left the Barrier
	stageClosed                // Close returned
)

var stageNames = [...]string{"running", "in Barrier", "left Barrier", "closed"}

// outcome is what one execute observed.
type outcome struct {
	// wall is first fn entry → last Barrier exit: bootstrap and close are
	// outside it.
	wall     time.Duration
	rankTime [ranks]time.Duration // each rank's own fn entry → Barrier exit
	stats    [ranks]transport.Stats
	closeDur time.Duration // slowest rank's Close
	err      error         // non-nil: the run failed (error, or watchdog)
}

// execute runs fn on every rank (mpi.Execute), then Barrier, then Close.
// It never hangs: at the deadline every rank is aborted, the ranks that had
// not finished are named, and the run is returned as failed.
//
// Every rank leaves the Barrier before any rank closes. In one process that
// costs a WaitGroup; it keeps the frames of a slow rank's last barrier round
// from being discarded by a fast rank's Close (ROADMAP open item 1), which
// is a teardown defect and not something a throughput sample should absorb.
func (w *world) execute(deadline time.Duration, fn func(c *mpi.Comm) error) outcome {
	var (
		out       outcome
		stage     [ranks]atomic.Int32
		enter     [ranks]time.Time
		exit      [ranks]time.Time
		closeDur  [ranks]time.Duration
		errs      [ranks]error
		wg, quiet sync.WaitGroup
	)
	abortAll := func() {
		for _, c := range w.comms {
			c.Abort()
		}
	}
	quiet.Add(ranks)
	for r := 0; r < ranks; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			comm := w.comms[rank]
			err := mpi.Execute(comm, func(c *mpi.Comm) error {
				enter[rank] = time.Now()
				if err := fn(c); err != nil {
					return err
				}
				stage[rank].Store(stageReturned)
				c.Barrier()
				exit[rank] = time.Now()
				stage[rank].Store(stageQuiesced)
				return nil
			})
			if err != nil {
				abortAll() // MPI_Abort: peers blocked on this rank unwind now
			}
			out.stats[rank] = comm.Transport().Stats()
			quiet.Done()
			quiet.Wait()
			t0 := time.Now()
			cerr := comm.Close()
			closeDur[rank] = time.Since(t0)
			stage[rank].Store(stageClosed)
			if _, peer := transport.AsPeerError(cerr); err == nil && cerr != nil && !peer {
				// A peer "failure" seen only at close is shutdown ordering
				// (distrun.Run makes the same call).
				err = fmt.Errorf("close: %w", cerr)
			}
			errs[rank] = err
		}(r)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(deadline):
		var where []string
		for r := range stage {
			where = append(where, fmt.Sprintf("rank %d %s", r, stageNames[stage[r].Load()]))
		}
		abortAll()
		grace := func() bool {
			select {
			case <-done:
				return true
			case <-time.After(5 * time.Second):
				return false
			}
		}
		if !grace() {
			for _, c := range w.comms {
				go c.Close()
			}
			grace()
		}
		out.err = fmt.Errorf("watchdog: not finished within %v (%s); aborted", deadline, strings.Join(where, ", "))
		return out
	}
	first, last := enter[0], exit[0]
	for r := 0; r < ranks; r++ {
		if errs[r] != nil {
			out.err = errors.Join(errs[:]...)
			return out
		}
		if enter[r].Before(first) {
			first = enter[r]
		}
		if exit[r].After(last) {
			last = exit[r]
		}
		out.rankTime[r] = exit[r].Sub(enter[r])
		if closeDur[r] > out.closeDur {
			out.closeDur = closeDur[r]
		}
	}
	out.wall = last.Sub(first)
	return out
}

// trained is one training run of a world.
type trained struct {
	outcome
	bootstrap time.Duration
	ranks     [ranks]*train.RankResult
}

// trainWorld bootstraps a world and trains cfg on it to completion.
func trainWorld(cfg train.Config, compress bool, deadline time.Duration, sl *spanLog, parent, run int) trained {
	var t trained
	sp := sl.begin(parent, "bootstrap", "transport", run, -1)
	w, err := openWorld(compress)
	sl.end(sp, nil)
	if err != nil {
		t.err = err
		return t
	}
	t.bootstrap = w.bootstrap
	t.outcome = w.execute(deadline, func(c *mpi.Comm) error {
		sp := sl.begin(parent, "RunRank", "train", run, c.Rank())
		rr, err := train.RunRank(c, cfg)
		var counts map[string]int64
		if err == nil {
			st := c.Transport().Stats()
			counts = map[string]int64{"bytes_sent": st.BytesSent, "frames_sent": st.FramesSent}
		}
		sl.end(sp, counts)
		t.ranks[c.Rank()] = rr
		return err
	})
	return t
}
