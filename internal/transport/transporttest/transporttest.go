// Package transporttest is the shared conformance suite for transport
// backends. RunTransportTests exercises, through a real mpi.Comm, the MPI
// semantics the exchange scheduler and the trainer depend on — per-(pair,
// tag) FIFO non-overtaking, ANY_SOURCE matching, deadlock-free eager
// pairwise exchange, back-to-back collectives, one payload set refused alike
// everywhere, and no send to the own rank — so every backend
// (inproc goroutines, TCP processes, and whatever comes next) is held to
// the same contract.
package transporttest

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/transport"
	"plshuffle/internal/transport/faultinject"
	"plshuffle/internal/transport/inproc"
	"plshuffle/internal/transport/tcp"
)

// WrapConn interposes on one rank's connection — how the chaos suite slides
// a fault injector under an unmodified rank program. A nil WrapConn is the
// identity.
type WrapConn func(rank int, inner transport.Conn) transport.Conn

// Backend runs a rank program over a world of a given size on one concrete
// transport.
type Backend interface {
	Name() string
	// Run executes fn once per rank and returns the joined rank errors.
	Run(n int, fn func(c *mpi.Comm) error) error
	// Open builds the world's communicators WITHOUT running a program and
	// without Run's quiesce-then-close epilogue — teardown-semantics tests
	// (RunCloseSemanticsTests) drive Close/Recv races directly. The cleanup
	// closes every communicator still open.
	Open(n int) ([]*mpi.Comm, func(), error)
}

// Inproc returns the in-process (goroutine) backend harness.
func Inproc() Backend { return inprocBackend{name: "inproc"} }

// InprocWrapped returns an in-process backend with every rank's connection
// passed through wrap. Unlike Inproc (mpi.Run, whole-world abort), ranks run
// over per-rank communicators (mpi.Connect), so one rank failing — say, a
// scripted crash — does not unwind its peers; that is exactly the isolation
// the chaos tests need.
func InprocWrapped(name string, wrap WrapConn) Backend {
	return inprocBackend{name: name, wrap: wrap}
}

type inprocBackend struct {
	name string
	wrap WrapConn
}

func (b inprocBackend) Name() string { return b.name }

func (b inprocBackend) Run(n int, fn func(c *mpi.Comm) error) error {
	if b.wrap == nil {
		return mpi.Run(n, fn)
	}
	comms, cleanup, err := b.Open(n)
	if err != nil {
		return err
	}
	defer cleanup()
	errs := make([]error, n)
	phases := make([]atomic.Int32, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer phases[rank].Store(returned)
			errs[rank] = mpi.Execute(comms[rank], fn)
		}(r)
	}
	if !waitTimeout(&wg, runDeadline) {
		return wedgeReport(b.name, phases, comms)
	}
	return errors.Join(errs...)
}

func (b inprocBackend) Open(n int) ([]*mpi.Comm, func(), error) {
	if b.wrap == nil {
		w := mpi.NewWorld(n)
		comms := make([]*mpi.Comm, n)
		for r := 0; r < n; r++ {
			comms[r] = w.Comm(r)
		}
		return comms, func() { closeAll(comms) }, nil
	}
	network := inproc.NewNetwork(n)
	comms := make([]*mpi.Comm, n)
	for r := 0; r < n; r++ {
		rank := r
		comm, err := mpi.Connect(func(h transport.Handler) (transport.Conn, error) {
			return b.wrap(rank, network.Attach(rank, h)), nil
		})
		if err != nil {
			closeAll(comms[:r])
			return nil, nil, fmt.Errorf("transporttest: rank %d: %w", rank, err)
		}
		comms[r] = comm
	}
	return comms, func() { closeAll(comms) }, nil
}

// TCP returns a backend harness that runs every rank as a goroutine in this
// process but moves every frame across real localhost TCP sockets through
// the tcp backend — the full wire path (codec, framing, rendezvous, mesh)
// without needing to fork processes inside a test.
func TCP() Backend { return tcpBackend{name: "tcp"} }

// TCPWrapped returns a TCP backend with every rank's connection passed
// through wrap and the given per-rank config hook applied before dialing
// (nil cfgHook keeps the defaults) — the chaos suite uses it to enable
// heartbeats and shorten retry budgets.
func TCPWrapped(name string, wrap WrapConn, cfgHook func(rank int, cfg *tcp.Config)) Backend {
	return tcpBackend{name: name, wrap: wrap, cfgHook: cfgHook}
}

type tcpBackend struct {
	name    string
	wrap    WrapConn
	cfgHook func(rank int, cfg *tcp.Config)
}

func (b tcpBackend) Name() string { return b.name }

func (b tcpBackend) Run(n int, fn func(c *mpi.Comm) error) error {
	comms, cleanup, err := b.Open(n)
	if err != nil {
		return err
	}
	errs := make([]error, n)
	phases := make([]atomic.Int32, n)
	var wg sync.WaitGroup
	var failed sync.Once
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			defer phases[rank].Store(returned)
			err := mpi.Execute(comms[rank], func(c *mpi.Comm) error {
				if err := fn(c); err != nil {
					return err
				}
				// Quiesce before teardown so no rank closes its transport
				// while peers still expect frames.
				phases[rank].Store(inBarrier)
				c.Barrier()
				return nil
			})
			phases[rank].Store(closing)
			if err != nil {
				// A rank that fails never reaches the barrier, and its peers
				// would sit in theirs until the watchdog, which then reports a
				// hang instead of this error. Unwind them; the first failure
				// is the one Run returns.
				failed.Do(func() {
					errs[rank] = err
					for _, peer := range comms {
						peer.Abort()
					}
				})
			}
			if cerr := comms[rank].Close(); err == nil && cerr != nil {
				errs[rank] = fmt.Errorf("rank %d: close: %w", rank, cerr)
			}
		}(r)
	}
	if !waitTimeout(&wg, runDeadline) {
		err := wedgeReport(b.name, phases, comms)
		cleanup() // unwinds the wedged ranks: Close wakes a blocked wait
		return err
	}
	cleanup()
	return errors.Join(errs...)
}

func (b tcpBackend) Open(n int) ([]*mpi.Comm, func(), error) {
	// Reserve the rendezvous port race-free: bind it here and hand the
	// listener to rank 0.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, nil, fmt.Errorf("transporttest: reserving rendezvous: %w", err)
	}
	rendezvous := ln.Addr().String()

	comms := make([]*mpi.Comm, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := tcp.Config{
				Rank:             rank,
				Size:             n,
				Rendezvous:       rendezvous,
				BootstrapTimeout: 30 * time.Second,
			}
			if rank == 0 {
				cfg.RendezvousListener = ln
			}
			if b.cfgHook != nil {
				b.cfgHook(rank, &cfg)
			}
			comm, err := mpi.Connect(func(h transport.Handler) (transport.Conn, error) {
				inner, err := tcp.New(cfg, h)
				if err != nil {
					return nil, err
				}
				if b.wrap != nil {
					return b.wrap(rank, inner), nil
				}
				return inner, nil
			})
			if err != nil {
				errs[rank] = fmt.Errorf("rank %d: %w", rank, err)
				return
			}
			comms[rank] = comm
		}(r)
	}
	if !waitTimeout(&wg, 40*time.Second) {
		closeAll(comms)
		return nil, nil, fmt.Errorf("transporttest: tcp bootstrap of %d ranks did not finish within 40s", n)
	}
	if err := errors.Join(errs...); err != nil {
		closeAll(comms)
		return nil, nil, err
	}
	return comms, func() { closeAll(comms) }, nil
}

func closeAll(comms []*mpi.Comm) {
	for _, c := range comms {
		if c != nil {
			c.Close()
		}
	}
}

// runDeadline bounds a world's run. A variable so the wedge test need not
// wait a minute; nothing else writes it.
var runDeadline = 60 * time.Second

// Where a rank of a running world is, for the watchdog's report.
const (
	inProgram int32 = iota // the zero value: running the rank program
	inBarrier              // TCP: the quiesce barrier before teardown
	closing                // TCP: closing its transport
	returned
)

var phaseNames = [...]string{inProgram: "in its program", inBarrier: "in the closing barrier", closing: "closing its transport"}

// wedgeReport is the watchdog's error: every rank that had not returned,
// where it was, and — on a backend that tracks liveness (TCP) — how long
// ago it last heard each peer, so a wedged world names the rank and the
// silence it is stuck on instead of only the deadline.
func wedgeReport(name string, phases []atomic.Int32, comms []*mpi.Comm) error {
	now := time.Now()
	var stuck []string
	for r := range phases {
		ph := phases[r].Load()
		if ph == returned {
			continue
		}
		line := fmt.Sprintf("rank %d %s", r, phaseNames[ph])
		if ls, ok := transport.AsLivenessStatser(comms[r].Transport()); ok {
			var heard []string
			for p := range phases {
				if p == r {
					continue
				}
				if at := ls.LastHeard(p); at.IsZero() {
					heard = append(heard, fmt.Sprintf("%d never", p))
				} else {
					heard = append(heard, fmt.Sprintf("%d %v ago", p, now.Sub(at).Round(time.Millisecond)))
				}
			}
			line += " (last heard: " + strings.Join(heard, ", ") + ")"
		}
		stuck = append(stuck, line)
	}
	return fmt.Errorf("transporttest: %s world of %d ranks did not finish within %v: %s",
		name, len(phases), runDeadline, strings.Join(stuck, "; "))
}

// waitTimeout waits for wg up to d; false means the deadline expired first.
func waitTimeout(wg *sync.WaitGroup, d time.Duration) bool {
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	select {
	case <-done:
		return true
	case <-time.After(d):
		return false
	}
}

// RunCloseSemanticsTests pins the teardown contract every backend must
// honor: a Close issued from another goroutine (a watchdog) wakes a Recv
// blocked on a message that will never come — surfacing ErrCommClosed
// instead of deadlocking — and a Send after Close returns an error instead
// of panicking or silently dropping the frame.
func RunCloseSemanticsTests(t *testing.T, b Backend) {
	t.Helper()

	t.Run(fmt.Sprintf("%s/CloseWakesBlockedRecv", b.Name()), func(t *testing.T) {
		comms, cleanup, err := b.Open(2)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		errCh := make(chan error, 1)
		go func() {
			errCh <- mpi.Execute(comms[0], func(c *mpi.Comm) error {
				c.Recv(1, 7) // no peer ever sends tag 7
				return nil
			})
		}()
		time.Sleep(50 * time.Millisecond) // let the Recv block
		comms[0].Close()
		select {
		case err := <-errCh:
			if err == nil {
				t.Fatal("blocked Recv returned nil after Close; want ErrCommClosed unwind")
			}
			if !errors.Is(err, mpi.ErrCommClosed) {
				t.Fatalf("blocked Recv unwound with %v; want ErrCommClosed in the chain", err)
			}
		case <-time.After(10 * time.Second):
			t.Fatal("Recv still blocked 10s after Close — teardown deadlock")
		}
	})

	t.Run(fmt.Sprintf("%s/SendAfterClose", b.Name()), func(t *testing.T) {
		comms, cleanup, err := b.Open(2)
		if err != nil {
			t.Fatal(err)
		}
		defer cleanup()
		if err := comms[0].Close(); err != nil {
			t.Fatalf("close: %v", err)
		}
		// Transport level: the raw connection must refuse the frame.
		if _, err := comms[0].Transport().Send(1, 0, []int{1}); err == nil {
			t.Error("transport Send after Close returned nil; want an error")
		}
		// Runtime level: the same misuse through the mpi API must surface as
		// a recovered rank error, not a panic or a hang.
		err = mpi.Execute(comms[0], func(c *mpi.Comm) error {
			c.Send(1, 0, []int{1})
			return nil
		})
		if err == nil {
			t.Error("mpi Send after Close returned nil; want a transport-failure error")
		}
	})
}

// RunTransportTests runs the conformance suite against a backend. Every
// subtest sends only the payload types of the transport codec, which every
// backend carries; UnencodablePayloadRefused pins that each refuses the rest.
func RunTransportTests(t *testing.T, b Backend) {
	t.Helper()

	run := func(name string, n int, fn func(c *mpi.Comm) error) {
		t.Run(fmt.Sprintf("%s/%s", b.Name(), name), func(t *testing.T) {
			t.Parallel()
			if err := b.Run(n, fn); err != nil {
				t.Fatal(err)
			}
		})
	}

	run("FIFONonOvertaking", 2, func(c *mpi.Comm) error {
		const msgs = 200
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				c.Send(1, 3, []int{i})
			}
			return nil
		}
		for i := 0; i < msgs; i++ {
			p, st := c.Recv(0, 3)
			if st.Source != 0 || st.Tag != 3 {
				return fmt.Errorf("message %d: status %+v", i, st)
			}
			if p.([]int)[0] != i {
				return fmt.Errorf("message %d arrived out of order: got %v", i, p)
			}
		}
		return nil
	})

	run("FIFOPerTagInterleaved", 2, func(c *mpi.Comm) error {
		const msgs = 50
		if c.Rank() == 0 {
			for i := 0; i < msgs; i++ {
				c.Send(1, 10, []int{i})
				c.Send(1, 11, []int{-i})
			}
			return nil
		}
		// Drain tag 11 first, then tag 10: each stream must stay ordered
		// even when received out of send order.
		for i := 0; i < msgs; i++ {
			if p, _ := c.Recv(0, 11); p.([]int)[0] != -i {
				return fmt.Errorf("tag 11 msg %d: got %v", i, p)
			}
		}
		for i := 0; i < msgs; i++ {
			if p, _ := c.Recv(0, 10); p.([]int)[0] != i {
				return fmt.Errorf("tag 10 msg %d: got %v", i, p)
			}
		}
		return nil
	})

	run("AnySourceMatching", 4, func(c *mpi.Comm) error {
		if c.Rank() != 0 {
			c.Send(0, 1, []int{c.Rank()})
			return nil
		}
		seen := map[int]bool{}
		for i := 0; i < c.Size()-1; i++ {
			p, st := c.Recv(mpi.AnySource, 1)
			if p.([]int)[0] != st.Source {
				return fmt.Errorf("payload %v does not match status source %d", p, st.Source)
			}
			seen[st.Source] = true
		}
		if len(seen) != c.Size()-1 {
			return fmt.Errorf("messages from %d distinct sources, want %d", len(seen), c.Size()-1)
		}
		return nil
	})

	run("TagMatchingOutOfOrder", 2, func(c *mpi.Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("tag5"))
			c.Send(1, 9, []byte("tag9"))
			return nil
		}
		p9, _ := c.Recv(0, 9)
		p5, _ := c.Recv(0, 5)
		if string(p9.([]byte)) != "tag9" || string(p5.([]byte)) != "tag5" {
			return fmt.Errorf("tag matching wrong: %v / %v", p9, p5)
		}
		return nil
	})

	run("EagerPairwiseExchange", 2, func(c *mpi.Comm) error {
		// Both ranks send a large buffer first, then receive: sends must not
		// deadlock against each other (socket backpressure). At 8 MiB the
		// body is larger than loopback's socket buffers, so on TCP both
		// ranks' writes wait on the other's reader at once.
		buf := make([]float32, 2<<20)
		for i := range buf {
			buf[i] = float32(c.Rank()*len(buf) + i)
		}
		other := 1 - c.Rank()
		c.Isend(other, 0, buf)
		p, _ := c.Recv(other, 0)
		got := p.([]float32)
		if len(got) != len(buf) {
			return fmt.Errorf("exchange returned %d elements, want %d", len(got), len(buf))
		}
		for i, v := range got {
			if v != float32(other*len(buf)+i) {
				return fmt.Errorf("exchange element %d mismatch: %v", i, v)
			}
		}
		return nil
	})

	run("SendBufferReuse", 2, func(c *mpi.Comm) error {
		// Every buffer is overwritten the moment Send returns; the receiver
		// must see what was sent. On TCP the 1 MiB bodies take both send
		// paths: in pass 0 they queue behind the frames sent while the first
		// socket is dialed, and are copied into the queue; in pass 1 the peer
		// is idle, and a []float32 or []byte body goes to the socket from the
		// caller's memory (a compressing rank's []byte from its block).
		const big = 1 << 20
		floats, raw := make([]float32, big/4), make([]byte, big)
		fill := func(pass int) {
			for i := range floats {
				floats[i] = float32(pass*len(floats) + i)
			}
			for i := range raw {
				raw[i] = byte(i*31 + pass)
			}
		}
		if c.Rank() == 0 {
			fill(0) // before the first Send: pass 0 must follow it at once
			buf := []float64{1, 2, 3}
			c.Send(1, 0, buf)
			buf[0] = 99 // must not reach the receiver
			for pass := 0; pass < 2; pass++ {
				if pass > 0 {
					fill(pass)
				}
				c.Send(1, 1, floats)
				clear(floats)
				c.Send(1, 2, raw)
				clear(raw)
				c.Barrier()
			}
			return nil
		}
		for pass := 0; pass < 2; pass++ {
			c.Barrier()
			fill(pass)
			pf, _ := c.Recv(0, 1)
			if got := pf.([]float32); !slices.Equal(got, floats) {
				return fmt.Errorf("pass %d: receiver saw a mutated []float32 buffer", pass)
			}
			pb, _ := c.Recv(0, 2)
			if got := pb.([]byte); !slices.Equal(got, raw) {
				return fmt.Errorf("pass %d: receiver saw a mutated []byte buffer", pass)
			}
		}
		p, _ := c.Recv(0, 0)
		if got := p.([]float64)[0]; got != 1 {
			return fmt.Errorf("receiver saw mutated buffer: %v", got)
		}
		return nil
	})

	run("BackToBackCollectives", 4, func(c *mpi.Comm) error {
		for iter := 0; iter < 25; iter++ {
			buf := []int{c.Rank() + iter}
			mpi.Allreduce(c, buf, mpi.OpSum)
			if want := 4*iter + 6; buf[0] != want {
				return fmt.Errorf("iter %d: allreduce got %d want %d", iter, buf[0], want)
			}
			b := []int{0}
			if c.Rank() == iter%4 {
				b[0] = iter
			}
			mpi.Bcast(c, b, iter%4)
			if b[0] != iter {
				return fmt.Errorf("iter %d: bcast got %d", iter, b[0])
			}
			c.Barrier()
		}
		return nil
	})

	run("SampleRoundTrip", 2, func(c *mpi.Comm) error {
		// The exchange scheduler's actual wire pattern: encoded samples with
		// ANY_SOURCE receives.
		s := data.Sample{ID: 7, Label: 3, Features: []float32{0.5, -1.25, 3}, Bytes: 117 << 10}
		other := 1 - c.Rank()
		c.Isend(other, 0, s.Encode())
		p, _ := c.Recv(mpi.AnySource, 0)
		got, err := data.DecodeSample(p.([]byte))
		if err != nil {
			return err
		}
		if got.ID != s.ID || got.Label != s.Label || got.Bytes != s.Bytes || len(got.Features) != 3 || got.Features[1] != -1.25 {
			return fmt.Errorf("sample mangled in transit: %+v", got)
		}
		return nil
	})

	run("SampleRefsRoundTrip", 2, func(c *mpi.Comm) error {
		// The dedup reference frame: a sorted id list that must survive any
		// backend byte-identically — the receiver materializes samples from
		// its cache segment purely from these ids.
		refs := transport.SampleRefs{2, 3, 40, 1 << 20, 1 << 41}
		other := 1 - c.Rank()
		c.Isend(other, 6, refs)
		p, st := c.Recv(mpi.AnySource, 6)
		got, ok := p.(transport.SampleRefs)
		if !ok {
			return fmt.Errorf("refs arrived as %T with status %+v", p, st)
		}
		if len(got) != len(refs) {
			return fmt.Errorf("refs count %d, want %d", len(got), len(refs))
		}
		for i := range got {
			if got[i] != refs[i] {
				return fmt.Errorf("ref %d = %d, want %d", i, got[i], refs[i])
			}
		}
		return nil
	})

	run("LargeBatchPayloadIntegrity", 2, func(c *mpi.Comm) error {
		// A coalesced sample batch big enough to cross the TCP compression
		// threshold: whether it travels plain or as KindDataZ is the
		// backend's business — the decoded samples must be bit-identical.
		samples := make([]data.Sample, 64)
		for i := range samples {
			samples[i] = data.Sample{
				ID: i + c.Rank()*1000, Label: i % 7,
				Features: []float32{float32(i), -1.5, float32(c.Rank()), float32(i) * 0.25},
				Bytes:    100,
			}
		}
		other := 1 - c.Rank()
		c.Isend(other, 8, data.EncodeSampleBatch(samples))
		p, _ := c.Recv(other, 8)
		got, err := data.DecodeSampleBatch(p.([]byte))
		if err != nil {
			return err
		}
		if len(got) != len(samples) {
			return fmt.Errorf("batch length %d, want %d", len(got), len(samples))
		}
		for i, s := range got {
			if s.ID != i+other*1000 || s.Features[3] != float32(i)*0.25 {
				return fmt.Errorf("sample %d mangled: %+v", i, s)
			}
		}
		return nil
	})

	run("SendReportsWireBytes", 2, func(c *mpi.Comm) error {
		// What Send returns is what the frame costs on the wire: on a wire
		// backend the sizes sum to the growth of the transport's own data-kind
		// byte counters — compressed frames at their compressed size — and on
		// inproc to the deterministic FrameWireSize. One exception is part of
		// the contract: a fault injector that delays frames queues them all,
		// so it answers before the inner connection has seen the frame, with
		// the FrameWireSize estimate. (Enough frames go out that a delaying
		// script cannot have delayed none of them.)
		const tagData, tagSelf, tagAck = 20, 21, 22
		const rounds, perRound = 10, 4
		if c.Rank() == 1 {
			for i := 0; i < rounds*perRound; i++ {
				c.Recv(0, tagData)
			}
			c.Send(0, tagAck, []int{1})
			return nil
		}
		conn := c.Transport()
		dataBytes := func() int64 {
			st := conn.Stats()
			return st.SentBytesByKind[transport.KindData] + st.SentBytesByKind[transport.KindDataZ] + st.SentBytesByKind[transport.KindDataRef]
		}
		samples := make([]data.Sample, 64)
		for i := range samples {
			samples[i] = data.Sample{ID: i, Label: i % 7, Features: []float32{float32(i), -1.5, 2, float32(i) * 0.25}, Bytes: 100}
		}
		before := dataBytes()
		var got, estimate int64
		payloads := [perRound]any{
			[]int{1, 2, 3},
			make([]float32, 1000),
			data.EncodeSampleBatch(samples), // large and compressible: KindDataZ where the sender compresses
			transport.SampleRefs{2, 3, 40, 1 << 41},
		}
		for i := 0; i < rounds*perRound; i++ {
			p := payloads[i%perRound]
			wire, err := conn.Send(1, tagData, p)
			if err != nil {
				return err
			}
			got += wire
			estimate += transport.FrameWireSize(p)
		}
		if wire, err := conn.Send(0, tagSelf, []int{1}); !errors.Is(err, transport.ErrSelfSend) || wire != 0 {
			return fmt.Errorf("self-send returned %d wire bytes and %v, want 0 and ErrSelfSend", wire, err)
		}
		// The receiver has every frame, so an injector's queue has handed them
		// all to the wire and the counters are final.
		c.Recv(1, tagAck)
		want := estimate
		inj, wrapped := conn.(*faultinject.Conn)
		if queued := wrapped && inj.Injected().Delays > 0; conn.Stats().Wire && !queued {
			want = dataBytes() - before
		}
		if got != want {
			return fmt.Errorf("Send returned %d wire bytes in total, want %d (uncompressed estimate %d)", got, want, estimate)
		}
		return nil
	})

	run("UnencodablePayloadRefused", 2, func(c *mpi.Comm) error {
		// Every backend carries the payload types the runtime sends and
		// refuses any other before a frame leaves, so a program that runs in
		// process runs across processes too.
		const tag = 30
		if c.Rank() == 1 {
			p, _ := c.Recv(0, tag)
			if got, ok := p.([]int); !ok || len(got) != 1 || got[0] != 7 {
				return fmt.Errorf("first frame on tag %d is %T %v, want []int{7}", tag, p, p)
			}
			return nil
		}
		type named float32
		conn := c.Transport()
		for _, p := range []any{"x", 42, []int32{1}, []named{1}, struct{}{}} {
			before := conn.Stats().FramesSent
			_, err := conn.Send(1, tag, p)
			if err == nil {
				return fmt.Errorf("Send accepted a %T payload", p)
			}
			if !strings.Contains(err.Error(), fmt.Sprintf("%T", p)) {
				return fmt.Errorf("Send refused a %T payload with %q, which does not name the type", p, err)
			}
			if after := conn.Stats().FramesSent; after != before {
				return fmt.Errorf("refused %T payload counted as sent: FramesSent %d -> %d", p, before, after)
			}
		}
		c.Send(1, tag, []int{7})
		return nil
	})

	run("SelfSendRefused", 2, func(c *mpi.Comm) error {
		// Algorithm 1 keeps the slots a rank draws for itself, and no
		// collective addresses its own rank, so a frame to the own rank is a
		// bug: every backend refuses it before it counts or delivers anything.
		const tag = 40
		conn := c.Transport()
		before := conn.Stats()
		for _, p := range []any{[]int{1}, []byte("self"), "x"} {
			if _, err := conn.Send(c.Rank(), tag, p); !errors.Is(err, transport.ErrSelfSend) {
				return fmt.Errorf("Send of a %T to the own rank returned %v, want ErrSelfSend", p, err)
			}
		}
		if after := conn.Stats(); after.FramesSent != before.FramesSent || after.BytesSent != before.BytesSent {
			return fmt.Errorf("refused self-sends counted: %d frames, %d bytes -> %d frames, %d bytes",
				before.FramesSent, before.BytesSent, after.FramesSent, after.BytesSent)
		}
		if done, p, _ := c.Irecv(c.Rank(), tag).Test(); done {
			return fmt.Errorf("a refused self-send delivered %v", p)
		}
		return nil
	})

	run("GradientAllreduce", 3, func(c *mpi.Comm) error {
		buf := make([]float32, 4097) // not divisible by world size
		for i := range buf {
			buf[i] = float32(c.Rank() + 1)
		}
		mpi.Allreduce(c, buf, mpi.OpSum)
		for i, v := range buf {
			if v != 6 {
				return fmt.Errorf("buf[%d] = %v, want 6", i, v)
			}
		}
		return nil
	})
}
