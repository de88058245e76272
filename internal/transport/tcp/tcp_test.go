package tcp

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"plshuffle/internal/transport"
)

// startWorld forms an n-rank TCP world inside this process. Frames delivered
// to rank r land on the returned channel inbox[r]. mutate, when non-nil,
// adjusts each rank's Config before New (fault injection hooks live there).
func startWorld(t *testing.T, n int, mutate func(rank int, cfg *Config)) ([]*Conn, []chan transport.Frame) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserving rendezvous: %v", err)
	}
	rendezvous := ln.Addr().String()

	conns := make([]*Conn, n)
	inbox := make([]chan transport.Frame, n)
	errs := make([]error, n)
	var wg sync.WaitGroup
	for r := 0; r < n; r++ {
		inbox[r] = make(chan transport.Frame, 4096)
		wg.Add(1)
		go func(rank int) {
			defer wg.Done()
			cfg := Config{
				Rank:             rank,
				Size:             n,
				Rendezvous:       rendezvous,
				BootstrapTimeout: 20 * time.Second,
			}
			if rank == 0 {
				cfg.RendezvousListener = ln
			}
			if mutate != nil {
				mutate(rank, &cfg)
			}
			ch := inbox[rank]
			conns[rank], errs[rank] = New(cfg, func(f transport.Frame) { ch <- f })
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Fatalf("rank %d: New: %v", r, err)
		}
	}
	t.Cleanup(func() {
		for _, c := range conns {
			if c != nil {
				c.Close()
			}
		}
	})
	return conns, inbox
}

// recvN drains n frames from ch or fails the test after a timeout.
func recvN(t *testing.T, ch <-chan transport.Frame, n int) []transport.Frame {
	t.Helper()
	out := make([]transport.Frame, 0, n)
	deadline := time.After(15 * time.Second)
	for len(out) < n {
		select {
		case f := <-ch:
			out = append(out, f)
		case <-deadline:
			t.Fatalf("received %d/%d frames before timeout", len(out), n)
		}
	}
	return out
}

// flakyListener drops (closes immediately after accept) the first `drops`
// connections, simulating a rendezvous endpoint that keeps losing dials.
type flakyListener struct {
	net.Listener
	drops int32
}

func (l *flakyListener) Accept() (net.Conn, error) {
	conn, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	if atomic.AddInt32(&l.drops, -1) >= 0 {
		conn.Close()
	}
	return conn, nil
}

func TestBootstrapSurvivesFlakyRendezvous(t *testing.T) {
	t.Parallel()
	// Rank 0's rendezvous listener drops the first three accepted
	// connections; peers must retry the full round and still form the world.
	conns, inbox := startWorld(t, 3, func(rank int, cfg *Config) {
		if rank == 0 {
			cfg.RendezvousListener = &flakyListener{Listener: cfg.RendezvousListener, drops: 3}
		}
	})
	for r := 1; r < 3; r++ {
		if _, err := conns[r].Send(0, 7, []int{r}); err != nil {
			t.Fatalf("rank %d send: %v", r, err)
		}
	}
	got := recvN(t, inbox[0], 2)
	seen := map[int]bool{}
	for _, f := range got {
		seen[f.Src] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("rank 0 heard from %v, want ranks 1 and 2", seen)
	}
}

func TestBootstrapSurvivesFlakyDial(t *testing.T) {
	t.Parallel()
	// Every non-root rank's first two dials fail outright.
	conns, inbox := startWorld(t, 2, func(rank int, cfg *Config) {
		if rank != 0 {
			var failures int32 = 2
			cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
				if atomic.AddInt32(&failures, -1) >= 0 {
					return nil, fmt.Errorf("injected dial failure to %s", addr)
				}
				return net.DialTimeout("tcp", addr, timeout)
			}
		}
	})
	if _, err := conns[1].Send(0, 1, []byte("hello")); err != nil {
		t.Fatal(err)
	}
	f := recvN(t, inbox[0], 1)[0]
	if string(f.Payload.([]byte)) != "hello" || f.Src != 1 {
		t.Fatalf("unexpected frame %+v", f)
	}
}

func TestReconnectAfterDroppedConnection(t *testing.T) {
	t.Parallel()
	conns, inbox := startWorld(t, 2, nil)

	const batch = 50
	for i := 0; i < batch; i++ {
		if _, err := conns[0].Send(1, 0, []int{i}); err != nil {
			t.Fatal(err)
		}
	}
	first := recvN(t, inbox[1], batch)

	// Sever the established connection mid-exchange: grab rank 0's write
	// connection to rank 1 and close the socket under the transport.
	p := conns[0].peers[1]
	p.mu.Lock()
	live := p.conn
	p.mu.Unlock()
	if live == nil {
		t.Fatal("no established connection to sever")
	}
	live.Close()

	for i := batch; i < 2*batch; i++ {
		if _, err := conns[0].Send(1, 0, []int{i}); err != nil {
			t.Fatal(err)
		}
	}
	second := recvN(t, inbox[1], batch)

	all := append(first, second...)
	for i, f := range all {
		if f.Payload.([]int)[0] != i {
			t.Fatalf("frame %d: got payload %v (reconnect broke FIFO)", i, f.Payload)
		}
	}
	if err := conns[0].Err(); err != nil {
		t.Fatalf("transport recorded failure despite successful reconnect: %v", err)
	}
}

func TestResetPeersIsLossless(t *testing.T) {
	t.Parallel()
	// ResetPeers models a transient network blip: every established
	// connection is recycled, but no frame already handed to Send may be
	// lost and no peer may be declared dead. The half-close discipline is
	// what makes this safe — a full close would destroy inbound frames
	// sitting in the local receive buffer that the sender already counted
	// as delivered.
	var failures atomic.Int32
	conns, inbox := startWorld(t, 3, nil)
	for _, c := range conns {
		c.OnPeerFailure(func(transport.PeerError) { failures.Add(1) })
	}

	const rounds, perRound = 6, 40
	sent := 0
	for round := 0; round < rounds; round++ {
		for i := 0; i < perRound; i++ {
			for src := range conns {
				dst := (src + 1) % 3
				if _, err := conns[src].Send(dst, 0, []int{sent*3 + src}); err != nil {
					t.Fatalf("round %d: rank %d send: %v", round, src, err)
				}
			}
			sent++
		}
		// Recycle every rank's connections mid-stream, including while
		// peers may still be draining the previous round.
		for _, c := range conns {
			c.ResetPeers()
		}
	}

	// Then rounds of 256 KiB []float32 frames, which go to the socket inline
	// from each sender's own goroutine — from the caller's buffer, refilled
	// for every frame — while the resets land: a reset that cuts an inline
	// write leaves a truncated frame on the old socket, and the sender must
	// resend it whole on the next.
	const bigRounds, perBig, bigLen = 3, 16, 64 << 10
	for round := 0; round < bigRounds; round++ {
		var wg sync.WaitGroup
		errs := make([]error, len(conns))
		for src := range conns {
			wg.Add(1)
			go func(src int) {
				defer wg.Done()
				buf := make([]float32, bigLen)
				for i := 0; i < perBig && errs[src] == nil; i++ {
					seq := (round*perBig + i) * 3
					for j := range buf {
						buf[j] = float32(j)
					}
					buf[0] = float32(seq + src)
					_, errs[src] = conns[src].Send((src+1)%3, 1, buf)
				}
			}(src)
		}
		for k := 0; k < 2; k++ {
			time.Sleep(2 * time.Millisecond)
			for _, c := range conns {
				c.ResetPeers()
			}
		}
		wg.Wait()
		for src, err := range errs {
			if err != nil {
				t.Fatalf("big round %d: rank %d send: %v", round, src, err)
			}
		}
	}

	// Each rank receives every frame from its single upstream neighbour once,
	// whole and in FIFO order despite the resets.
	for dst := range conns {
		src := (dst + 2) % 3
		got := recvN(t, inbox[dst], rounds*perRound+bigRounds*perBig)
		for i, f := range got {
			if f.Src != src {
				t.Fatalf("rank %d frame %d: src %d, want %d", dst, i, f.Src, src)
			}
			if i < rounds*perRound {
				if want := i*3 + src; f.Payload.([]int)[0] != want {
					t.Fatalf("rank %d frame %d: payload %v, want %d (reset broke FIFO)", dst, i, f.Payload, want)
				}
				continue
			}
			fs, ok := f.Payload.([]float32)
			if !ok || len(fs) != bigLen {
				t.Fatalf("rank %d frame %d: payload %T of %d elements, want %d float32s", dst, i, f.Payload, len(fs), bigLen)
			}
			if want := (i-rounds*perRound)*3 + src; fs[0] != float32(want) {
				t.Fatalf("rank %d frame %d: big frame %v, want %d (reset broke FIFO)", dst, i, fs[0], want)
			}
			for j := 1; j < bigLen; j++ {
				if fs[j] != float32(j) {
					t.Fatalf("rank %d frame %d: element %d = %v, want %d (frame not whole)", dst, i, j, fs[j], j)
				}
			}
		}
	}
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d peer-failure notifications fired for a survivable reset", n)
	}
	for r, c := range conns {
		if err := c.Err(); err != nil {
			t.Fatalf("rank %d recorded failure despite lossless resets: %v", r, err)
		}
	}
}

// delayProxy relays one TCP connection to target, passing on each chunk the
// client writes — and the client's FIN — delay after it arrived. The other
// direction, which carries only the target's FIN, passes at once. read
// counts the client bytes the proxy has taken in. It is called from the
// dialing rank's writer goroutine, so it reports a failure with t.Error.
func delayProxy(t *testing.T, target string, delay time.Duration, read *atomic.Int64) (addr string) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Error(err)
		return target
	}
	t.Cleanup(func() { ln.Close() })
	go func() {
		client, err := ln.Accept()
		if err != nil {
			return
		}
		defer client.Close()
		server, err := net.Dial("tcp", target)
		if err != nil {
			return
		}
		defer server.Close()
		type chunk struct {
			at time.Time
			b  []byte // nil: the client's FIN
		}
		late := make(chan chunk, 1024) // more chunks than a test writes: reading never waits on the delay
		var wg sync.WaitGroup
		wg.Add(2)
		go func() {
			defer wg.Done()
			for c := range late {
				time.Sleep(time.Until(c.at.Add(delay)))
				if c.b == nil {
					server.(*net.TCPConn).CloseWrite()
					return
				}
				server.Write(c.b)
			}
		}()
		go func() {
			defer wg.Done()
			io.Copy(client, server)
			client.(*net.TCPConn).CloseWrite()
		}()
		for {
			buf := make([]byte, 64<<10)
			n, err := client.Read(buf)
			if n > 0 {
				read.Add(int64(n))
				late <- chunk{time.Now(), buf[:n]}
			}
			if err != nil {
				late <- chunk{at: time.Now()}
				break
			}
		}
		wg.Wait()
	}()
	return ln.Addr().String()
}

// TestReconnectKeepsDialOrder pins the receiver's half of FIFO across a
// reconnect: a source's sockets are read in the order it dialed them, each
// to its end, however late the bytes of an older socket arrive — and a dial
// that failed before its hello was written holds up none of the later ones.
func TestReconnectKeepsDialOrder(t *testing.T) {
	t.Parallel()
	const n = 100
	frameWire := transport.FrameWireSize(0) // every payload below is an int
	helloWire := int64(4 + 17)

	// sendAcrossReset sends 2n frames from rank 0 to rank 1 and recycles rank
	// 0's sockets between the halves, once written waits for the first half
	// to have left rank 0; rank 1 must deliver all of them in send order.
	sendAcrossReset := func(t *testing.T, conns []*Conn, inbox []chan transport.Frame, written func() bool) {
		for i := 0; i < 2*n; i++ {
			if i == n {
				deadline := time.Now().Add(10 * time.Second)
				for !written() && time.Now().Before(deadline) {
					time.Sleep(time.Millisecond)
				}
				conns[0].ResetPeers()
			}
			if _, err := conns[0].Send(1, 0, []int{i}); err != nil {
				t.Fatal(err)
			}
		}
		for i, f := range recvN(t, inbox[1], 2*n) {
			if f.Payload.([]int)[0] != i {
				t.Fatalf("frame %d: payload %v (the reconnect overtook the older socket)", i, f.Payload)
			}
		}
		for r, c := range conns {
			if err := c.Err(); err != nil {
				t.Fatalf("rank %d: %v", r, err)
			}
		}
	}

	t.Run("older-socket-delayed", func(t *testing.T) {
		t.Parallel()
		// Rank 0's first data socket runs through a proxy that holds every
		// byte 200 ms; the socket dialed after the reset is direct, so its
		// frames reach rank 1 long before the first socket's do.
		var read atomic.Int64
		conns, inbox := startWorld(t, 2, func(rank int, cfg *Config) {
			if rank != 0 {
				return
			}
			var dials atomic.Int32
			cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
				if dials.Add(1) == 1 {
					addr = delayProxy(t, addr, 200*time.Millisecond, &read)
				}
				return net.DialTimeout("tcp", addr, timeout)
			}
		})
		sendAcrossReset(t, conns, inbox, func() bool {
			return read.Load() >= helloWire+n*frameWire
		})
	})

	t.Run("first-hello-fails", func(t *testing.T) {
		t.Parallel()
		// Rank 0's first data dial connects and is closed before the hello
		// is written: rank 1 accepts a socket that ends without a hello.
		conns, inbox := startWorld(t, 2, func(rank int, cfg *Config) {
			if rank != 0 {
				return
			}
			var dials atomic.Int32
			cfg.Dial = func(addr string, timeout time.Duration) (net.Conn, error) {
				conn, err := net.DialTimeout("tcp", addr, timeout)
				if err == nil && dials.Add(1) == 1 {
					conn.Close()
				}
				return conn, err
			}
		})
		sendAcrossReset(t, conns, inbox, func() bool {
			return conns[0].Stats().SentByKind[transport.KindHello] == 1
		})
	})
}

// TestWriteOnDialedSocketIsProtocolError: a rank reads frames only from the
// sockets it accepted, so bytes arriving on one it dialed are an error.
func TestWriteOnDialedSocketIsProtocolError(t *testing.T) {
	t.Parallel()
	conns, inbox := startWorld(t, 2, nil)
	if _, err := conns[0].Send(1, 0, []int{1}); err != nil {
		t.Fatal(err)
	}
	recvN(t, inbox[1], 1)
	frame, err := transport.AppendDataFrame(nil, 1, 0, 0, []int{2})
	if err != nil {
		t.Fatal(err)
	}
	// Rank 1 has dialed nothing: its one socket is the one rank 0 dialed.
	conns[1].connsMu.Lock()
	for conn := range conns[1].conns {
		conn.Write(frame)
	}
	conns[1].connsMu.Unlock()
	deadline := time.Now().Add(10 * time.Second)
	for conns[0].Err() == nil && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if err := conns[0].Err(); err == nil || !strings.Contains(err.Error(), "dialed") {
		t.Fatalf("rank 0 recorded %v, want a protocol error naming the dialed socket", err)
	}
	select {
	case f := <-inbox[0]:
		t.Fatalf("rank 0 delivered %+v from a socket it dialed", f)
	default:
	}
}

func TestResetPeersAfterCloseIsNoop(t *testing.T) {
	t.Parallel()
	conns, _ := startWorld(t, 2, nil)
	if err := conns[0].Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	conns[0].ResetPeers() // must not panic or resurrect dial loops
}

// hangingDial is a Dial hook for a peer that never answers: it blocks until
// its timeout, then fails.
func hangingDial(addr string, timeout time.Duration) (net.Conn, error) {
	time.Sleep(timeout)
	return nil, fmt.Errorf("dial %s: no answer within %v", addr, timeout)
}

// TestWriteRetryRespectsTotalDeadline: RetryTimeout alone bounds how long a
// batch redials an unreachable peer, whether its dials are refused at once or
// hang until their timeout, which is clamped to what is left of the budget.
// The peer is then dead: Err names it, later Sends fail, and Close returns
// the error.
func TestWriteRetryRespectsTotalDeadline(t *testing.T) {
	t.Parallel()
	const budget = 300 * time.Millisecond
	for _, tc := range []struct {
		name string
		dial func(addr string, timeout time.Duration) (net.Conn, error) // rank 0's; nil dials for real
	}{
		{"refused", nil}, // rank 1 closes, so its listener refuses
		{"hanging", hangingDial},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			conns, _ := startWorld(t, 2, func(rank int, cfg *Config) {
				cfg.RetryTimeout = budget
				if rank == 0 && tc.dial != nil {
					cfg.Dial = tc.dial
				}
			})
			if tc.dial == nil {
				if err := conns[1].Close(); err != nil {
					t.Fatalf("closing rank 1: %v", err)
				}
			}
			start := time.Now()
			if _, err := conns[0].Send(1, 0, []int{42}); err != nil {
				t.Fatalf("eager send must enqueue even while the peer is unreachable: %v", err)
			}
			for conns[0].Err() == nil && time.Since(start) < 10*time.Second {
				time.Sleep(5 * time.Millisecond)
			}
			elapsed := time.Since(start)
			err := conns[0].Err()
			if pe, ok := transport.AsPeerError(err); !ok || pe.Rank != 1 {
				t.Fatalf("recorded %v, want a PeerError for rank 1", err)
			}
			if elapsed > budget+250*time.Millisecond {
				t.Fatalf("the failure took %v to surface; RetryTimeout is %v", elapsed, budget)
			}
			if !strings.Contains(err.Error(), "retry deadline") {
				t.Fatalf("error does not mention the retry deadline: %v", err)
			}
			if _, serr := conns[0].Send(1, 0, []int{43}); serr == nil {
				t.Fatal("Send to the dead peer succeeded")
			}
			if cerr := conns[0].Close(); cerr == nil {
				t.Fatal("Close returned nil after a recorded transport failure")
			}
		})
	}
}

func TestPeerDeathIsScopedAndNotified(t *testing.T) {
	t.Parallel()
	// Rank 2 dies; rank 0 must (a) get an OnPeerFailure callback naming rank
	// 2, (b) fail sends toward rank 2 with a PeerError, and (c) keep
	// exchanging traffic with rank 1 — peer death is scoped, not a
	// whole-transport poison.
	conns, inbox := startWorld(t, 3, func(rank int, cfg *Config) {
		cfg.RetryTimeout = 300 * time.Millisecond
	})
	failed := make(chan transport.PeerError, 4)
	conns[0].OnPeerFailure(func(pe transport.PeerError) { failed <- pe })

	conns[2].Kill()
	if _, err := conns[0].Send(2, 0, []int{1}); err != nil {
		t.Fatalf("eager send must enqueue even while the peer is down: %v", err)
	}
	select {
	case pe := <-failed:
		if pe.Rank != 2 {
			t.Fatalf("failure callback named rank %d, want 2", pe.Rank)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("OnPeerFailure callback never fired")
	}
	// Sends toward the dead peer now fail fast with a typed error.
	_, err := conns[0].Send(2, 0, []int{2})
	if pe, ok := transport.AsPeerError(err); !ok || pe.Rank != 2 {
		t.Fatalf("Send to dead peer returned %v, want PeerError for rank 2", err)
	}
	// Traffic to the surviving peer keeps flowing.
	if _, err := conns[0].Send(1, 9, []byte("alive")); err != nil {
		t.Fatalf("send to surviving peer failed: %v", err)
	}
	f := recvN(t, inbox[1], 1)[0]
	if string(f.Payload.([]byte)) != "alive" || f.Src != 0 {
		t.Fatalf("unexpected frame %+v", f)
	}
}

func TestHeartbeatDetectsSilentPeerDeath(t *testing.T) {
	t.Parallel()
	// Rank 0 never sends rank 1 any data. With heartbeats enabled it must
	// still detect rank 1's death: pings ride the normal write path, so the
	// exhausted retry budget surfaces as a PeerError.
	conns, _ := startWorld(t, 2, func(rank int, cfg *Config) {
		cfg.HeartbeatInterval = 20 * time.Millisecond
		cfg.RetryTimeout = 300 * time.Millisecond
	})
	failed := make(chan transport.PeerError, 4)
	conns[0].OnPeerFailure(func(pe transport.PeerError) { failed <- pe })

	conns[1].Kill()
	select {
	case pe := <-failed:
		if pe.Rank != 1 {
			t.Fatalf("failure callback named rank %d, want 1", pe.Rank)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("heartbeats never detected the dead peer")
	}
}

// frozenListener accepts sockets and never reads or writes on them: the
// kernel of a peer whose process no longer runs (stopped, or wedged).
func frozenListener(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var held []net.Conn
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			held = append(held, conn)
			mu.Unlock()
		}
	}()
	t.Cleanup(func() {
		ln.Close()
		mu.Lock()
		for _, conn := range held {
			conn.Close()
		}
		mu.Unlock()
	})
	return ln.Addr().String()
}

// TestFrozenPeerIsDeclaredDead: under heartbeats a peer that takes this
// rank's pings into its socket buffer and says nothing is dead within
// silentBeats intervals, whether it never spoke or fell silent after a
// frame. OnPeerFailure names it within the bound, and Close then waits for
// no drain to it.
func TestFrozenPeerIsDeclaredDead(t *testing.T) {
	t.Parallel()
	const beat = 50 * time.Millisecond
	const bound = silentBeats*beat + 250*time.Millisecond
	for _, spoke := range []bool{false, true} {
		t.Run(fmt.Sprintf("spoke=%v", spoke), func(t *testing.T) {
			t.Parallel()
			frozen := frozenListener(t)
			// Rank 1 is the frozen process: it runs no heartbeat, and every
			// socket rank 0 dials to it lands in a kernel that never reads.
			conns, inbox := startWorld(t, 2, func(rank int, cfg *Config) {
				if rank == 0 {
					cfg.HeartbeatInterval = beat
					cfg.Dial = func(_ string, timeout time.Duration) (net.Conn, error) {
						return net.DialTimeout("tcp", frozen, timeout)
					}
				}
			})
			failed := make(chan transport.PeerError, 4)
			conns[0].OnPeerFailure(func(pe transport.PeerError) { failed <- pe })
			start := time.Now()
			if spoke {
				if _, err := conns[1].Send(0, 0, []int{1}); err != nil {
					t.Fatal(err)
				}
				recvN(t, inbox[0], 1)
				start = time.Now()
			}
			select {
			case pe := <-failed:
				if pe.Rank != 1 {
					t.Fatalf("failure callback named rank %d, want 1", pe.Rank)
				}
				if took := time.Since(start); took > bound {
					t.Fatalf("the frozen peer was declared dead after %v, want within %v", took, bound)
				}
			case <-time.After(10 * time.Second):
				t.Fatal("a frozen peer was never declared dead")
			}
			t0 := time.Now()
			err := conns[0].Close()
			if took := time.Since(t0); took > bound {
				t.Fatalf("Close took %v after the peer was declared dead, want within %v", took, bound)
			}
			if pe, ok := transport.AsPeerError(err); !ok || pe.Rank != 1 {
				t.Fatalf("Close returned %v, want a PeerError for rank 1", err)
			}
		})
	}
}

func TestCloseAbandonsPingsToExitedPeer(t *testing.T) {
	t.Parallel()
	// End-of-run shutdown race: rank 1 finishes and closes first; rank 0's
	// next heartbeat ping dials a listener that no longer exists. Once rank
	// 0 itself begins closing, the undeliverable ping must be abandoned
	// rather than pressed through the retry budget — a peer that exited
	// while we are tearing down is not a failure, and Close must return nil.
	conns, _ := startWorld(t, 2, func(rank int, cfg *Config) {
		cfg.HeartbeatInterval = 10 * time.Millisecond
		// Keep the retry budget far longer than this test: the failure must
		// be averted by the closing check, not by winning a race against it.
		cfg.RetryTimeout = 10 * time.Second
	})
	failed := make(chan transport.PeerError, 4)
	conns[0].OnPeerFailure(func(pe transport.PeerError) { failed <- pe })

	if err := conns[1].Close(); err != nil {
		t.Fatalf("rank 1 close: %v", err)
	}
	// Let at least one heartbeat tick enqueue a ping to the departed peer so
	// rank 0's writer is mid-retry against the dead listener.
	time.Sleep(50 * time.Millisecond)
	if err := conns[0].Close(); err != nil {
		t.Fatalf("rank 0 close after peer exit: %v", err)
	}
	select {
	case pe := <-failed:
		t.Fatalf("peer-failure callback fired for a graceful shutdown: %v", pe)
	default:
	}
}

func TestKillStopsEndpointImmediately(t *testing.T) {
	t.Parallel()
	conns, _ := startWorld(t, 2, nil)
	conns[0].Kill()
	if _, err := conns[0].Send(1, 0, []int{1}); err == nil {
		t.Fatal("Send succeeded on a killed transport")
	}
	// Kill must be idempotent and compatible with a later Close.
	conns[0].Kill()
	conns[0].Close()
}

func TestRendezvousRetryBoundedByTotalDeadline(t *testing.T) {
	t.Parallel()
	// A rendezvous that never answers must not hang the bootstrap: whether
	// it accepts and goes silent or its dials hang, BootstrapTimeout bounds
	// the whole retry loop, and New fails with a descriptive error.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			_ = conn // accept and go silent; never send the table
		}
	}()
	const budget = 400 * time.Millisecond
	for _, tc := range []struct {
		name string
		dial func(addr string, timeout time.Duration) (net.Conn, error) // nil dials for real
	}{
		{"mute", nil},
		{"hanging", hangingDial},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			start := time.Now()
			_, err := New(Config{
				Rank:             1,
				Size:             2,
				Rendezvous:       ln.Addr().String(),
				BootstrapTimeout: budget,
				Dial:             tc.dial,
			}, func(transport.Frame) {})
			if err == nil {
				t.Fatal("New succeeded against a rendezvous that never answers")
			}
			if elapsed := time.Since(start); elapsed > budget+250*time.Millisecond {
				t.Fatalf("bootstrap failure took %v; BootstrapTimeout is %v", elapsed, budget)
			}
			if !strings.Contains(err.Error(), "rendezvous") {
				t.Fatalf("error does not mention the rendezvous: %v", err)
			}
		})
	}
}

func TestCloseDrainsQueuedFrames(t *testing.T) {
	t.Parallel()
	conns, inbox := startWorld(t, 2, nil)
	// The first frame opens the socket. Then a sender streams 1 MiB frames
	// until Send refuses: they go to the socket inline from its goroutine, one
	// after another. Once one of those writes is seen in flight, this
	// goroutine queues small frames behind it and closes, so Close has an
	// inline write to wait out and a queue to drain.
	const n, bodyLen, queued = 32, 256 << 10, 16
	if _, err := conns[0].Send(1, 0, make([]float32, bodyLen)); err != nil {
		t.Fatal(err)
	}
	first := recvN(t, inbox[1], 1)
	accepted := make(chan int, 1)
	go func() {
		payload := make([]float32, bodyLen)
		i := 1
		for ; i < n; i++ {
			if _, err := conns[0].Send(1, i, payload); err != nil {
				break
			}
		}
		accepted <- i
	}()
	p := conns[0].peers[1]
	for busy := false; !busy; {
		p.mu.Lock()
		busy = p.writing || len(accepted) > 0
		p.mu.Unlock()
	}
	for i := 0; i < queued; i++ {
		if _, err := conns[0].Send(1, n+i, make([]float32, 512)); err != nil {
			t.Fatal(err)
		}
	}
	// Close reads each connection to the peer's FIN, which the peer's reader
	// sends only after delivering everything before it. So when Close returns,
	// every frame Send accepted is already in the peer's inbox; nothing is
	// still in a socket buffer for a reset to destroy.
	if err := conns[0].Close(); err != nil {
		t.Fatalf("close: %v", err)
	}
	sent := <-accepted + queued
	if delivered := len(first) + len(inbox[1]); delivered != sent {
		t.Fatalf("Close returned with %d/%d accepted frames delivered to the peer", delivered, sent)
	}
	// Each sender's frames arrive whole and in its order.
	next := [2]int{0, n}
	for i, f := range append(first, recvN(t, inbox[1], sent-len(first))...) {
		fs, _ := f.Payload.([]float32)
		from, size := 0, bodyLen
		if f.Tag >= n {
			from, size = 1, 512
		}
		if f.Tag != next[from] || len(fs) != size {
			t.Fatalf("frame %d: tag %d with %d floats, want tag %d with %d: drain reordered or lost frames",
				i, f.Tag, len(fs), next[from], size)
		}
		next[from]++
	}
}

// awaitIdle waits until p's socket is up and nothing is queued or being
// written, so that the next Send to it goes inline.
func awaitIdle(p *peer) {
	for {
		p.mu.Lock()
		idle := p.conn != nil && len(p.queue) == 0 && !p.writing
		p.mu.Unlock()
		if idle {
			return
		}
		time.Sleep(time.Millisecond)
	}
}

// TestKillReleasesBlockedInlineWrite pins that an inline write is released by
// Kill at once rather than by writeTimeout (30 s). Rank 0's socket to rank 1
// is one end of a net.Pipe whose other side reads the hello and the frame
// that opened the socket, then nothing, so the next Send, which finds the
// peer idle, blocks inside its write.
func TestKillReleasesBlockedInlineWrite(t *testing.T) {
	t.Parallel()
	opened := make(chan error, 1)
	conns, _ := startWorld(t, 2, func(rank int, cfg *Config) {
		if rank != 0 {
			return
		}
		cfg.Dial = func(string, time.Duration) (net.Conn, error) {
			ours, theirs := net.Pipe()
			go func() {
				var err error
				for i := 0; i < 2 && err == nil; i++ { // the hello, then the first frame
					_, _, err = transport.ReadFrame(theirs)
				}
				opened <- err
			}()
			return ours, nil
		}
	})
	if _, err := conns[0].Send(1, 0, []int{1}); err != nil {
		t.Fatal(err)
	}
	if err := <-opened; err != nil {
		t.Fatalf("reading the socket's first frames: %v", err)
	}
	awaitIdle(conns[0].peers[1]) // the writer goroutine lets go of the socket it opened
	returned := make(chan error, 1)
	go func() {
		_, err := conns[0].Send(1, 0, make([]float32, 256<<10)) // 1 MiB
		returned <- err
	}()
	select {
	case err := <-returned:
		t.Fatalf("Send returned (%v) while nobody reads the socket: the frame was not written inline", err)
	case <-time.After(100 * time.Millisecond):
	}
	killed := time.Now()
	conns[0].Kill()
	select {
	case <-returned:
	case <-time.After(time.Second):
		t.Fatal("Kill did not release an inline write within 1s")
	}
	t.Logf("Kill released the inline write after %v", time.Since(killed))
}

// TestInlineSendSteadyStateAllocs pins that a frame written inline allocates
// nothing: the header is built in the peer's scratch, and a []float32 body
// goes to the socket from the caller's memory. Rank 0's socket to rank 1 ends
// at a sink that reads the hello and discards everything after it, so the
// count holds only the sender's allocations.
func TestInlineSendSteadyStateAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under -race")
	}
	sink, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	go func() {
		conn, err := sink.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, _, err := transport.ReadFrame(conn); err != nil {
			return
		}
		buf := make([]byte, 64<<10)
		for {
			if _, err := conn.Read(buf); err != nil {
				return
			}
		}
	}()
	conns, _ := startWorld(t, 2, func(rank int, cfg *Config) {
		if rank == 0 {
			cfg.Dial = func(_ string, timeout time.Duration) (net.Conn, error) {
				return net.DialTimeout("tcp", sink.Addr().String(), timeout)
			}
		}
	})
	var payload any = make([]float32, 4096) // boxed once, as Send receives it
	// Open the socket and warm the scratch.
	for i := 0; i < 16; i++ {
		if _, err := conns[0].Send(1, 0, payload); err != nil {
			t.Fatal(err)
		}
	}
	awaitIdle(conns[0].peers[1])
	var sendErr error
	allocs := testing.AllocsPerRun(200, func() {
		if _, err := conns[0].Send(1, 0, payload); err != nil {
			sendErr = err
		}
	})
	if sendErr != nil {
		t.Fatal(sendErr)
	}
	if allocs > 0 {
		t.Fatalf("an inline Send allocates %.1f times per frame, want 0", allocs)
	}
}

func TestStatsCountWireBytes(t *testing.T) {
	t.Parallel()
	conns, inbox := startWorld(t, 2, nil)
	payload := make([]float64, 1024) // 8 KiB on the wire, plus framing
	const n = 10
	var metered int64
	for i := 0; i < n; i++ {
		wire, err := conns[0].Send(1, 0, payload)
		if err != nil {
			t.Fatal(err)
		}
		metered += wire
	}
	// Sent counters advance when Send accepts a frame, not when a writer
	// goroutine reaches the socket: they equal the metered total right away,
	// with no wait for the writers to be scheduled.
	if s := conns[0].Stats(); s.FramesSent != n || s.SentBytesByKind[transport.KindData] != metered {
		t.Fatalf("right after %d sends: FramesSent %d, data bytes sent %d, metered %d bytes",
			n, s.FramesSent, s.SentBytesByKind[transport.KindData], metered)
	}
	recvN(t, inbox[1], n)

	s0, s1 := conns[0].Stats(), conns[1].Stats()
	if !s0.Wire || !s1.Wire {
		t.Fatalf("tcp stats must report Wire=true: %+v %+v", s0, s1)
	}
	if s0.FramesSent != n || s1.FramesRecv != n {
		t.Fatalf("frame counts: sent %d recv %d, want %d", s0.FramesSent, s1.FramesRecv, n)
	}
	minBytes := int64(n * 8 * 1024)
	if s0.BytesSent < minBytes || s1.BytesRecv < minBytes {
		t.Fatalf("byte counts below payload volume: sent %d recv %d, want ≥ %d", s0.BytesSent, s1.BytesRecv, minBytes)
	}
	if s1.BytesRecv > s0.BytesSent+1024 {
		t.Fatalf("receiver counted %d bytes, sender only %d", s1.BytesRecv, s0.BytesSent)
	}
}

// compressibleBuf builds an encoded-payload-sized buffer with enough
// repetition that wirecomp actually shrinks it — the shape of a coalesced
// sample batch, where IDs and feature prefixes repeat across entries.
func compressibleBuf(n int) []byte {
	buf := make([]byte, n)
	for i := range buf {
		buf[i] = byte(i % 17)
	}
	return buf
}

func TestCompressedSendRoundTrips(t *testing.T) {
	t.Parallel()
	conns, inbox := startWorld(t, 2, func(rank int, cfg *Config) {
		cfg.Compress = true
	})
	payload := compressibleBuf(64 << 10)
	wire, err := conns[0].Send(1, 9, payload)
	if err != nil {
		t.Fatal(err)
	}
	f := recvN(t, inbox[1], 1)[0]
	got, ok := f.Payload.([]byte)
	if !ok {
		t.Fatalf("payload arrived as %T, want []byte", f.Payload)
	}
	if len(got) != len(payload) || f.Tag != 9 || f.Src != 0 {
		t.Fatalf("frame mangled: len=%d tag=%d src=%d", len(got), f.Tag, f.Src)
	}
	for i := range got {
		if got[i] != payload[i] {
			t.Fatalf("payload byte %d differs after compressed transit", i)
		}
	}
	// The frame must actually have travelled as KindDataZ, smaller than its
	// plain encoding, and the metered size must match the per-kind counter
	// bit for bit.
	plain := transport.FrameWireSize(payload)
	if wire >= plain {
		t.Fatalf("compressed wire size %d not below plain %d", wire, plain)
	}
	ks0, ks1 := conns[0].Stats(), conns[1].Stats()
	if ks0.SentByKind[transport.KindDataZ] != 1 || ks0.SentByKind[transport.KindData] != 0 {
		t.Fatalf("sender kind counters: %+v", ks0.SentByKind)
	}
	if ks1.RecvByKind[transport.KindDataZ] != 1 {
		t.Fatalf("receiver kind counters: %+v", ks1.RecvByKind)
	}
	if ks0.SentBytesByKind[transport.KindDataZ] != wire {
		t.Fatalf("SentBytes[dataz]=%d, Send reported %d", ks0.SentBytesByKind[transport.KindDataZ], wire)
	}
	if ks1.RecvBytesByKind[transport.KindDataZ] != wire {
		t.Fatalf("RecvBytes[dataz]=%d, sender shipped %d", ks1.RecvBytesByKind[transport.KindDataZ], wire)
	}
	raw, cwire := ks0.CompressRaw, ks0.CompressWire
	if raw <= cwire || cwire <= 0 {
		t.Fatalf("Stats compress raw=%d wire=%d, want raw > wire > 0", raw, cwire)
	}
}

func TestCompressionBelowThresholdStaysPlain(t *testing.T) {
	t.Parallel()
	conns, inbox := startWorld(t, 2, func(rank int, cfg *Config) {
		cfg.Compress = true
	})
	small := compressibleBuf(64) // under minCompressPayload
	if _, err := conns[0].Send(1, 0, small); err != nil {
		t.Fatal(err)
	}
	recvN(t, inbox[1], 1)
	ks := conns[0].Stats()
	if ks.SentByKind[transport.KindDataZ] != 0 || ks.SentByKind[transport.KindData] != 1 {
		t.Fatalf("small payload should stay KindData: %+v", ks.SentByKind)
	}
}

func TestCompressionIsTheSendersChoice(t *testing.T) {
	t.Parallel()
	// Only rank 0 compresses. Its frames travel as KindDataZ and rank 1,
	// which does not compress, decodes them; rank 1's frames travel plain.
	conns, inbox := startWorld(t, 2, func(rank int, cfg *Config) {
		cfg.Compress = rank == 0
	})
	payload := compressibleBuf(32 << 10)
	if _, err := conns[0].Send(1, 0, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := conns[1].Send(0, 0, payload); err != nil {
		t.Fatal(err)
	}
	f1 := recvN(t, inbox[1], 1)[0]
	f0 := recvN(t, inbox[0], 1)[0]
	for _, f := range []transport.Frame{f0, f1} {
		got := f.Payload.([]byte)
		if len(got) != len(payload) || got[100] != payload[100] {
			t.Fatalf("payload from rank %d mangled", f.Src)
		}
	}
	s0, s1 := conns[0].Stats(), conns[1].Stats()
	if s0.SentByKind[transport.KindDataZ] != 1 || s1.RecvByKind[transport.KindDataZ] != 1 {
		t.Fatalf("0→1 did not travel compressed: rank 0 sent %v, rank 1 received %v", s0.SentByKind, s1.RecvByKind)
	}
	if s1.SentByKind[transport.KindData] != 1 || s1.SentByKind[transport.KindDataZ] != 0 || s0.RecvByKind[transport.KindDataZ] != 0 {
		t.Fatalf("1→0 did not travel plain: rank 1 sent %v, rank 0 received %v", s1.SentByKind, s0.RecvByKind)
	}
}

func TestSampleRefsFrameOverTCP(t *testing.T) {
	t.Parallel()
	conns, inbox := startWorld(t, 2, func(rank int, cfg *Config) {
		cfg.Compress = true // refs must stay uncompressed regardless
	})
	refs := transport.SampleRefs{3, 15, 16, 4096, 1 << 33}
	wire, err := conns[0].Send(1, 4, refs)
	if err != nil {
		t.Fatal(err)
	}
	f := recvN(t, inbox[1], 1)[0]
	got, ok := f.Payload.(transport.SampleRefs)
	if !ok {
		t.Fatalf("refs arrived as %T", f.Payload)
	}
	if len(got) != len(refs) {
		t.Fatalf("refs count %d, want %d", len(got), len(refs))
	}
	for i := range got {
		if got[i] != refs[i] {
			t.Fatalf("ref %d = %d, want %d", i, got[i], refs[i])
		}
	}
	ks := conns[0].Stats()
	if ks.SentByKind[transport.KindDataRef] != 1 {
		t.Fatalf("refs did not travel as KindDataRef: %+v", ks.SentByKind)
	}
	if ks.SentBytesByKind[transport.KindDataRef] != wire {
		t.Fatalf("SentBytes[dataref]=%d, metered %d", ks.SentBytesByKind[transport.KindDataRef], wire)
	}
	if want := transport.FrameWireSize(refs); wire != want {
		t.Fatalf("metered %d, FrameWireSize %d", wire, want)
	}
}

// TestSelfSendRoundTripsThroughCodec: no self-send reaches the codec. A rank
// keeps what it would send itself, so Send to the own rank is refused, in a
// world of one and of two, whatever the payload, and delivers and counts
// nothing.
func TestSelfSendRoundTripsThroughCodec(t *testing.T) {
	t.Parallel()
	solo := make(chan transport.Frame, 1)
	c, err := New(Config{Rank: 0, Size: 1}, func(f transport.Frame) { solo <- f })
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	conns, inbox := startWorld(t, 2, nil)
	for _, tc := range []struct {
		c     *Conn
		inbox chan transport.Frame
	}{{c, solo}, {conns[1], inbox[1]}} {
		for _, p := range []any{[]int{1, 2, 3}, struct{ X int }{1}} {
			if _, err := tc.c.Send(tc.c.Rank(), 5, p); !errors.Is(err, transport.ErrSelfSend) {
				t.Fatalf("rank %d of %d: self-send of %T returned %v, want ErrSelfSend", tc.c.Rank(), tc.c.Size(), p, err)
			}
		}
		if st := tc.c.Stats(); st.FramesSent != 0 || st.BytesSent != 0 || len(tc.inbox) != 0 {
			t.Fatalf("rank %d of %d: refused self-sends counted %d frames, %d bytes, delivered %d",
				tc.c.Rank(), tc.c.Size(), st.FramesSent, st.BytesSent, len(tc.inbox))
		}
	}
}

func TestSendValidation(t *testing.T) {
	t.Parallel()
	conns, _ := startWorld(t, 2, nil)
	if _, err := conns[0].Send(7, 0, nil); err == nil {
		t.Fatal("Send to out-of-range rank succeeded")
	}
	if err := conns[0].Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := conns[0].Send(1, 0, nil); err == nil {
		t.Fatal("Send on a closed transport succeeded")
	}
}

// TestConfigValidate: New refuses each inconsistent Config before binding
// anything, naming what is wrong.
func TestConfigValidate(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name string
		cfg  Config
		want string
	}{
		{"size-zero", Config{Size: 0}, "must be positive"},
		{"rank-negative", Config{Rank: -1, Size: 2, Rendezvous: "127.0.0.1:1"}, "out of range"},
		{"rank-too-large", Config{Rank: 2, Size: 2, Rendezvous: "127.0.0.1:1"}, "out of range"},
		{"max-below-size", Config{Size: 3, MaxSize: 2, Rendezvous: "127.0.0.1:1"}, "MaxSize 2 smaller"},
		{"no-rendezvous", Config{Rank: 1, Size: 2}, "rendezvous address required"},
		{"no-rendezvous-elastic", Config{Size: 1, MaxSize: 2}, "rendezvous address required"},
		{"join-no-rendezvous", Config{Join: true, MaxSize: 3}, "join mode requires a rendezvous"},
		{"join-no-capacity", Config{Join: true, MaxSize: 1, Rendezvous: "127.0.0.1:1"}, "MaxSize > 1"},
	} {
		if _, err := New(tc.cfg, func(transport.Frame) {}); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: New returned %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

// TestForeignFrameSourceIsProtocolError: a frame is delivered as from the
// rank whose hello opened its socket, and only to the rank it is addressed
// to. A raw socket hellos to rank 0 as rank 1 and sends an honest frame, then
// one whose header names another source — a third rank, or rank 0 itself — or
// another destination: that is a protocol error within 250 ms, and the frame
// is not delivered.
func TestForeignFrameSourceIsProtocolError(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		name     string
		src, dst int32
		want     string
	}{
		{"third-rank", 2, 0, "claims source 2"},
		{"own-rank", 0, 0, "claims source 0"},
		{"foreign-destination", 1, 2, "addressed to rank 2"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			conns, inbox := startWorld(t, 3, nil)
			raw, err := net.Dial("tcp", conns[0].listener.Addr().String())
			if err != nil {
				t.Fatal(err)
			}
			defer raw.Close()
			// Dial number 0: the real rank 1 has dialed nothing yet.
			wire, _ := transport.MarshalFrame(transport.WireFrame{Kind: transport.KindHello, Src: 1, Dst: 0})
			if wire, err = transport.AppendDataFrame(wire, 1, 0, 5, []int{0}); err != nil {
				t.Fatal(err)
			}
			if _, err := raw.Write(wire); err != nil {
				t.Fatal(err)
			}
			if f := recvN(t, inbox[0], 1)[0]; f.Src != 1 || f.Payload.([]int)[0] != 0 {
				t.Fatalf("honest frame delivered as %+v, want src 1 payload [0]", f)
			}
			if wire, err = transport.AppendDataFrame(nil, tc.src, tc.dst, 5, []int{1}); err != nil {
				t.Fatal(err)
			}
			start := time.Now()
			if _, err := raw.Write(wire); err != nil {
				t.Fatal(err)
			}
			for conns[0].Err() == nil && time.Since(start) < 10*time.Second {
				time.Sleep(time.Millisecond)
			}
			if took := time.Since(start); took > 250*time.Millisecond {
				t.Errorf("protocol error took %v, want within 250ms", took)
			}
			if err := conns[0].Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("rank 0 recorded %v, want a protocol error saying %q", err, tc.want)
			}
			select {
			case f := <-inbox[0]:
				t.Fatalf("rank 0 delivered %+v from a frame with source %d and destination %d on rank 1's socket", f, tc.src, tc.dst)
			default:
			}
		})
	}
}

// TestElasticJoin forms a 3-rank world with capacity 4, then rendezvouses a
// fourth endpoint mid-run: the joiner adopts slot 3 and the full peer table,
// rank 0 surfaces the join through OnJoinRequest, the other members admit
// the newcomer, and data frames flow in both directions.
func TestElasticJoin(t *testing.T) {
	t.Parallel()
	conns, inbox := startWorld(t, 3, func(rank int, cfg *Config) {
		cfg.MaxSize = 4
	})

	joinCh := make(chan transport.JoinRequest, 1)
	conns[0].OnJoinRequest(func(jr transport.JoinRequest) { joinCh <- jr })

	joinInbox := make(chan transport.Frame, 64)
	joiner, err := New(Config{
		Join:             true,
		MaxSize:          4,
		Rendezvous:       conns[0].cfg.Rendezvous,
		BootstrapTimeout: 20 * time.Second,
	}, func(f transport.Frame) { joinInbox <- f })
	if err != nil {
		t.Fatalf("joiner New: %v", err)
	}
	t.Cleanup(func() { joiner.Close() })
	if joiner.Rank() != 3 || joiner.Size() != 4 {
		t.Fatalf("joiner adopted rank=%d size=%d, want 3/4", joiner.Rank(), joiner.Size())
	}

	var jr transport.JoinRequest
	select {
	case jr = <-joinCh:
	case <-time.After(15 * time.Second):
		t.Fatal("rank 0 never surfaced the join request")
	}
	if jr.Rank != 3 || jr.Addr == "" {
		t.Fatalf("join request %+v, want rank 3 with an address", jr)
	}
	// Non-root members learn the joiner's address out of band (in the real
	// protocol, from rank 0's broadcast) and admit it.
	for r := 1; r < 3; r++ {
		if err := conns[r].AdmitPeer(jr.Rank, jr.Addr); err != nil {
			t.Fatalf("rank %d AdmitPeer: %v", r, err)
		}
	}

	for r := 0; r < 3; r++ {
		if _, err := conns[r].Send(3, 5, []int{r * 10}); err != nil {
			t.Fatalf("rank %d send to joiner: %v", r, err)
		}
		if _, err := joiner.Send(r, 6, []int{100 + r}); err != nil {
			t.Fatalf("joiner send to rank %d: %v", r, err)
		}
	}
	got := map[int]int{}
	for _, f := range recvN(t, joinInbox, 3) {
		got[f.Src] = f.Payload.([]int)[0]
	}
	for r := 0; r < 3; r++ {
		if got[r] != r*10 {
			t.Fatalf("joiner inbox from rank %d = %v, want %d", r, got[r], r*10)
		}
	}
	for r := 0; r < 3; r++ {
		f := recvN(t, inbox[r], 1)[0]
		if f.Src != 3 || f.Payload.([]int)[0] != 100+r {
			t.Fatalf("rank %d got %+v from joiner, want src=3 payload=%d", r, f, 100+r)
		}
	}
}

// TestElasticJoinQueuedBeforeCallback checks the pending-join buffer: a join
// that lands before OnJoinRequest is registered is flushed to the callback at
// registration time instead of being lost.
func TestElasticJoinQueuedBeforeCallback(t *testing.T) {
	t.Parallel()
	conns, _ := startWorld(t, 2, func(rank int, cfg *Config) {
		cfg.MaxSize = 3
	})
	joiner, err := New(Config{
		Join:             true,
		MaxSize:          3,
		Rendezvous:       conns[0].cfg.Rendezvous,
		BootstrapTimeout: 20 * time.Second,
	}, func(transport.Frame) {})
	if err != nil {
		t.Fatalf("joiner New: %v", err)
	}
	t.Cleanup(func() { joiner.Close() })

	// The joiner's New returning means rank 0 already processed the hello, so
	// the request is sitting in the pending buffer.
	joinCh := make(chan transport.JoinRequest, 1)
	conns[0].OnJoinRequest(func(jr transport.JoinRequest) { joinCh <- jr })
	select {
	case jr := <-joinCh:
		if jr.Rank != 2 {
			t.Fatalf("flushed join request %+v, want rank 2", jr)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("queued join request was not flushed on registration")
	}
}

// TestElasticJoinWorldFull: once every latent slot is assigned, further
// joiners are refused (their rendezvous gets no table) and fail by deadline.
func TestElasticJoinWorldFull(t *testing.T) {
	t.Parallel()
	conns, _ := startWorld(t, 2, func(rank int, cfg *Config) {
		cfg.MaxSize = 3
	})
	first, err := New(Config{
		Join:             true,
		MaxSize:          3,
		Rendezvous:       conns[0].cfg.Rendezvous,
		BootstrapTimeout: 20 * time.Second,
	}, func(transport.Frame) {})
	if err != nil {
		t.Fatalf("first joiner: %v", err)
	}
	t.Cleanup(func() { first.Close() })

	_, err = New(Config{
		Join:             true,
		MaxSize:          3,
		Rendezvous:       conns[0].cfg.Rendezvous,
		BootstrapTimeout: 1500 * time.Millisecond,
	}, func(transport.Frame) {})
	if err == nil {
		t.Fatal("joiner beyond capacity was admitted")
	}
}
