package faultinject

import (
	"errors"
	"sync"
	"testing"
	"time"

	"plshuffle/internal/transport"
)

// fakeConn records every frame the injector lets through and implements the
// optional fault interfaces so delegation is observable.
type fakeConn struct {
	rank, size int

	mu     sync.Mutex
	frames []transport.Frame
	killed bool
	closed bool
	resets int
	onFail func(transport.PeerError)
}

func newFake(rank, size int) *fakeConn { return &fakeConn{rank: rank, size: size} }

func (f *fakeConn) Rank() int { return f.rank }
func (f *fakeConn) Size() int { return f.size }

func (f *fakeConn) Send(dst, tag int, payload any) (int64, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.killed {
		return 0, &transport.PeerError{Rank: dst, Phase: transport.PhaseSend}
	}
	f.frames = append(f.frames, transport.Frame{Src: f.rank, Dst: dst, Tag: tag, Payload: payload})
	return 0, nil
}

func (f *fakeConn) Stats() transport.Stats {
	f.mu.Lock()
	defer f.mu.Unlock()
	return transport.Stats{FramesSent: int64(len(f.frames))}
}

func (f *fakeConn) Close() error {
	f.mu.Lock()
	f.closed = true
	f.mu.Unlock()
	return nil
}

func (f *fakeConn) Kill() {
	f.mu.Lock()
	f.killed = true
	f.mu.Unlock()
}

func (f *fakeConn) ResetPeers() {
	f.mu.Lock()
	f.resets++
	f.mu.Unlock()
}

func (f *fakeConn) OnPeerFailure(cb func(transport.PeerError)) {
	f.mu.Lock()
	f.onFail = cb
	f.mu.Unlock()
}

func (f *fakeConn) snapshot() []transport.Frame {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]transport.Frame(nil), f.frames...)
}

func TestValidateRejectsBadScripts(t *testing.T) {
	bad := []Script{
		{DelayProb: -0.1},
		{DelayProb: 1.5, MaxDelay: time.Millisecond},
		{DelayProb: 0.5}, // missing MaxDelay
		{DropProb: 2},
		{DupProb: -1},
		{ResetEvery: -3},
		{CrashCount: -1},
	}
	for i, s := range bad {
		if err := s.Validate(); err == nil {
			t.Errorf("script %d (%+v) accepted", i, s)
		}
	}
	good := []Script{
		{},
		{Seed: 7, DelayProb: 0.3, MaxDelay: time.Millisecond, DropProb: 0.1, DupProb: 0.1, ResetEvery: 5, CrashCount: 2, CrashTag: 1},
	}
	for i, s := range good {
		if err := s.Validate(); err != nil {
			t.Errorf("script %d rejected: %v", i, err)
		}
	}
}

func TestZeroScriptIsTransparent(t *testing.T) {
	fake := newFake(4, 5)
	c := New(fake, Script{})
	for i := 0; i < 50; i++ {
		if _, err := c.Send(i%4, i, i); err != nil {
			t.Fatalf("send %d: %v", i, err)
		}
	}
	frames := fake.snapshot()
	if len(frames) != 50 {
		t.Fatalf("inner saw %d frames, want 50", len(frames))
	}
	for i, f := range frames {
		if f.Dst != i%4 || f.Tag != i || f.Payload.(int) != i {
			t.Fatalf("frame %d perturbed: %+v", i, f)
		}
	}
	inj := c.Injected()
	if inj.Delays != 0 || inj.Drops != 0 || inj.Dups != 0 || inj.Resets != 0 || inj.Crashed {
		t.Fatalf("zero script injected faults: %+v", inj)
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(1, 0, 0); err == nil {
		t.Fatal("Send after Close returned nil")
	}
}

func TestDropAndDupCounts(t *testing.T) {
	fake := newFake(0, 2)
	c := New(fake, Script{Seed: 1, DropProb: 1})
	for i := 0; i < 20; i++ {
		if _, err := c.Send(1, 0, i); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(fake.snapshot()); got != 0 {
		t.Fatalf("DropProb=1 delivered %d frames, want 0", got)
	}
	if inj := c.Injected(); inj.Drops != 20 || inj.Frames != 20 {
		t.Fatalf("injected = %+v, want 20 drops of 20 frames", inj)
	}

	fake2 := newFake(0, 2)
	c2 := New(fake2, Script{Seed: 1, DupProb: 1})
	for i := 0; i < 20; i++ {
		if _, err := c2.Send(1, 0, i); err != nil {
			t.Fatal(err)
		}
	}
	if got := len(fake2.snapshot()); got != 40 {
		t.Fatalf("DupProb=1 delivered %d frames, want 40", got)
	}
	if inj := c2.Injected(); inj.Dups != 20 {
		t.Fatalf("injected = %+v, want 20 dups", inj)
	}
}

func TestDelayPreservesPerDestinationOrder(t *testing.T) {
	fake := newFake(3, 4)
	c := New(fake, Script{Seed: 99, DelayProb: 0.6, MaxDelay: 2 * time.Millisecond})
	const per = 60
	for i := 0; i < per; i++ {
		for dst := 0; dst < 3; dst++ {
			if _, err := c.Send(dst, 0, []int{dst*1000 + i}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := c.Close(); err != nil { // Close drains every queue
		t.Fatal(err)
	}
	frames := fake.snapshot()
	if len(frames) != 3*per {
		t.Fatalf("delivered %d frames, want %d", len(frames), 3*per)
	}
	next := map[int]int{}
	for _, f := range frames {
		want := f.Dst*1000 + next[f.Dst]
		if f.Payload.([]int)[0] != want {
			t.Fatalf("dst %d: frame overtook: got %v, want %d", f.Dst, f.Payload, want)
		}
		next[f.Dst]++
	}
	if inj := c.Injected(); inj.Delays == 0 {
		t.Fatal("no delays injected despite DelayProb=0.6")
	}
}

func TestDelayClonesPayload(t *testing.T) {
	fake := newFake(0, 2)
	c := New(fake, Script{Seed: 3, DelayProb: 1, MaxDelay: 5 * time.Millisecond})
	buf := []int{1, 2, 3}
	if _, err := c.Send(1, 0, buf); err != nil {
		t.Fatal(err)
	}
	buf[0] = 99 // mutate while the frame sleeps in the delay queue
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	frames := fake.snapshot()
	if len(frames) != 1 {
		t.Fatalf("delivered %d frames, want 1", len(frames))
	}
	if got := frames[0].Payload.([]int)[0]; got != 1 {
		t.Fatalf("delayed frame saw caller's mutation: %d", got)
	}
}

func TestCrashAtTagCount(t *testing.T) {
	fake := newFake(2, 4)
	c := New(fake, Script{Seed: 5, CrashTag: 7, CrashCount: 3})
	// Frames with other tags do not advance the crash counter.
	for i := 0; i < 5; i++ {
		if _, err := c.Send(0, 1, i); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Send(0, 7, 0); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Send(1, 7, 1); err != nil {
		t.Fatal(err)
	}
	// Third tag-7 frame: the endpoint dies mid-send; the frame is lost.
	if _, err := c.Send(3, 7, 2); !errors.Is(err, ErrCrashed) {
		t.Fatalf("crash send returned %v, want ErrCrashed", err)
	}
	if !fake.killed {
		t.Fatal("inner endpoint not killed")
	}
	if got := len(fake.snapshot()); got != 7 {
		t.Fatalf("inner saw %d frames, want 7 (crash frame lost)", got)
	}
	if _, err := c.Send(0, 1, 9); !errors.Is(err, ErrCrashed) {
		t.Fatalf("post-crash send returned %v, want ErrCrashed", err)
	}
	if inj := c.Injected(); !inj.Crashed {
		t.Fatalf("injected = %+v, want Crashed", inj)
	}
}

func TestCrashDiscardsDelayedFrames(t *testing.T) {
	fake := newFake(0, 2)
	c := New(fake, Script{Seed: 8, DelayProb: 1, MaxDelay: time.Hour, CrashTag: 9, CrashCount: 1})
	if _, err := c.Send(1, 0, []int{1}); err != nil { // sleeps for up to an hour
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { _, err := c.Send(1, 9, []int{2}); done <- err }()
	select {
	case err := <-done:
		if !errors.Is(err, ErrCrashed) {
			t.Fatalf("crash send returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("crash blocked behind a delayed frame")
	}
	// A dead process delivers nothing: nothing may have reached the inner
	// conn before the crash (the only queued frame had an hour-long delay),
	// and the crash cancelled it.
	if got := len(fake.snapshot()); got != 0 {
		t.Fatalf("crashed endpoint still delivered %d frames", got)
	}
}

func TestResetEveryDelegatesToResetter(t *testing.T) {
	fake := newFake(0, 2)
	c := New(fake, Script{Seed: 2, ResetEvery: 5})
	for i := 0; i < 23; i++ {
		if _, err := c.Send(1, 0, i); err != nil {
			t.Fatal(err)
		}
	}
	if fake.resets != 4 {
		t.Fatalf("inner saw %d resets, want 4 (every 5th of 23 frames)", fake.resets)
	}
	if inj := c.Injected(); inj.Resets != 4 {
		t.Fatalf("injected = %+v, want 4 resets", inj)
	}
	// All frames still delivered: a reset perturbs connections, not frames.
	if got := len(fake.snapshot()); got != 23 {
		t.Fatalf("delivered %d frames, want 23", got)
	}
}

// TestSelfSendRefused: a send to the own rank is refused before the script
// sees it — no frame counted, no fault drawn, nothing handed to the inner
// connection — on the straight path and the delaying one alike.
func TestSelfSendRefused(t *testing.T) {
	for _, script := range []Script{{}, {Seed: 1, DelayProb: 1, MaxDelay: time.Millisecond}} {
		fake := newFake(1, 2)
		c := New(fake, script)
		if _, err := c.Send(1, 0, []int{1}); !errors.Is(err, transport.ErrSelfSend) {
			t.Fatalf("script %+v: self-send returned %v, want ErrSelfSend", script, err)
		}
		if err := c.Close(); err != nil {
			t.Fatal(err)
		}
		if inj, n := c.Injected(), len(fake.snapshot()); inj.Frames != 0 || n != 0 {
			t.Fatalf("script %+v: a refused self-send counted %d frames, delivered %d", script, inj.Frames, n)
		}
	}
}

// TestDeterministicPerSeed pins the reproducibility contract: identical
// (script, send sequence) pairs commit identical faults, and the delivered
// frame sequence is identical run over run.
func TestDeterministicPerSeed(t *testing.T) {
	run := func(seed int64) ([]transport.Frame, Injected) {
		fake := newFake(4, 5)
		c := New(fake, Script{Seed: seed, DropProb: 0.3, DupProb: 0.2, ResetEvery: 7})
		for i := 0; i < 200; i++ {
			if _, err := c.Send(i%4, i%3, i); err != nil {
				t.Fatal(err)
			}
		}
		return fake.snapshot(), c.Injected()
	}
	fa, ia := run(42)
	fb, ib := run(42)
	if ia != ib {
		t.Fatalf("same seed, different faults: %+v vs %+v", ia, ib)
	}
	if len(fa) != len(fb) {
		t.Fatalf("same seed, different delivery: %d vs %d frames", len(fa), len(fb))
	}
	for i := range fa {
		if fa[i] != fb[i] {
			t.Fatalf("same seed, frame %d differs: %+v vs %+v", i, fa[i], fb[i])
		}
	}
	_, ic := run(43)
	if ia == ic {
		t.Fatal("different seeds produced identical fault counts — RNG not seeded")
	}
}

// TestAsyncErrorSurfacesOnNextSend: a delayed frame failing inside the
// queue worker is reported on the next Send toward that destination and
// through the failure-notification path, mirroring wire backends.
func TestAsyncErrorSurfacesOnNextSend(t *testing.T) {
	fake := newFake(0, 2)
	c := New(fake, Script{Seed: 4, DelayProb: 1, MaxDelay: time.Millisecond})
	var mu sync.Mutex
	var notified []transport.PeerError
	c.OnPeerFailure(func(pe transport.PeerError) {
		mu.Lock()
		notified = append(notified, pe)
		mu.Unlock()
	})
	fake.Kill() // every inner Send now fails with a PeerError
	if _, err := c.Send(1, 0, []int{1}); err != nil {
		t.Fatalf("first send should enqueue cleanly, got %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := c.Send(1, 0, []int{2})
		if err != nil {
			if _, ok := transport.AsPeerError(err); !ok {
				t.Fatalf("async failure surfaced as %v, want a PeerError", err)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("async send failure never surfaced")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	n := len(notified)
	mu.Unlock()
	if n != 1 {
		t.Fatalf("failure notified %d times, want exactly 1", n)
	}
	c.Kill() // discard the poisoned queue; the endpoint is already dead
}
