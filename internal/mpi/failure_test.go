package mpi

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"plshuffle/internal/transport"
)

// kill abruptly removes this rank from its world (the fault-injection
// analogue of a SIGKILLed process): peers observe a transport.PeerError.
func kill(t *testing.T, c *Comm) {
	t.Helper()
	k, ok := c.Transport().(transport.Killer)
	if !ok {
		t.Fatalf("transport %T does not implement Killer", c.Transport())
	}
	k.Kill()
}

// runWithTimeout runs fn across n ranks with a deadlock watchdog and
// returns the joined per-rank error.
func runWithTimeout(t *testing.T, n int, fn func(c *Comm) error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- Run(n, fn) }()
	select {
	case err := <-done:
		return err
	case <-time.After(30 * time.Second):
		t.Fatal("mpi failure test deadlocked (30s timeout)")
		return nil
	}
}

func TestShrinkValidation(t *testing.T) {
	w := NewWorld(4)
	c := w.Comm(1)
	for _, tc := range []struct {
		name string
		live []int
	}{
		{"empty", nil},
		{"out of range", []int{1, 4}},
		{"negative", []int{-1, 1}},
		{"unsorted", []int{3, 1}},
		{"duplicate", []int{1, 1, 3}},
		{"missing self", []int{0, 2}},
	} {
		if err := c.Shrink(tc.live); err == nil {
			t.Errorf("Shrink(%v) [%s]: want error, got nil", tc.live, tc.name)
		}
	}
	if err := c.Shrink([]int{0, 1, 3}); err != nil {
		t.Fatalf("Shrink: %v", err)
	}
	if got := c.GroupSize(); got != 3 {
		t.Fatalf("GroupSize() = %d, want 3", got)
	}
	if got := c.GroupRanks(); len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 3 {
		t.Fatalf("GroupRanks() = %v, want [0 1 3]", got)
	}
	// Shrinking back to the full world restores the identity mapping.
	if err := c.Shrink([]int{0, 1, 2, 3}); err != nil {
		t.Fatalf("Shrink(full): %v", err)
	}
	if c.group != nil || c.GroupSize() != 4 {
		t.Fatalf("full-world Shrink did not restore identity: group=%v size=%d", c.group, c.GroupSize())
	}
}

// TestCollectivesOverShrunkenGroup drives every collective over a
// 4-member group of a 5-rank world (rank 2 excluded) and checks results
// match the survivor-only semantics.
func TestCollectivesOverShrunkenGroup(t *testing.T) {
	live := []int{0, 1, 3, 4}
	err := runWithTimeout(t, 5, func(c *Comm) error {
		if c.Rank() == 2 {
			return nil // excluded rank sits out
		}
		if err := c.Shrink(live); err != nil {
			return err
		}

		// Allreduce: sum of rank+1 over survivors = 1+2+4+5 = 12.
		buf := []int{c.Rank() + 1}
		Allreduce(c, buf, OpSum)
		if buf[0] != 12 {
			t.Errorf("rank %d: Allreduce = %d, want 12", c.Rank(), buf[0])
		}

		// Bcast from a shifted root (world rank 3).
		b := []int{0}
		if c.Rank() == 3 {
			b[0] = 77
		}
		Bcast(c, b, 3)
		if b[0] != 77 {
			t.Errorf("rank %d: Bcast = %d, want 77", c.Rank(), b[0])
		}

		// Barrier over the group.
		c.Barrier()

		// Gather at world rank 0, ordered by group index.
		g := Gather(c, []int{10 * c.Rank()}, 0)
		if c.Rank() == 0 {
			want := []int{0, 10, 30, 40}
			for i := range want {
				if g[i] != want[i] {
					t.Errorf("Gather = %v, want %v", g, want)
					break
				}
			}
		} else if g != nil {
			t.Errorf("rank %d: Gather non-root returned %v", c.Rank(), g)
		}

		// AllgatherVarLen stays WORLD-indexed; the dead rank's entry is nil.
		v := make([]int, c.Rank()+1)
		av := AllgatherVarLen(c, v)
		if len(av) != 5 || av[2] != nil {
			t.Errorf("rank %d: AllgatherVarLen world indexing broken: len=%d av[2]=%v", c.Rank(), len(av), av[2])
		}
		for _, r := range live {
			if len(av[r]) != r+1 {
				t.Errorf("rank %d: AllgatherVarLen[%d] len=%d, want %d", c.Rank(), r, len(av[r]), r+1)
			}
		}

		// Non-blocking allreduce over the group.
		ib := []float32{float32(c.Rank())}
		IAllreduce(c, ib, OpSum).Wait()
		if ib[0] != 8 {
			t.Errorf("rank %d: IAllreduce = %v, want 8", c.Rank(), ib[0])
		}

		// AllreduceNaive (the ablation baseline) over the group.
		nb := []int{1}
		AllreduceNaive(c, nb, OpSum)
		if nb[0] != 4 {
			t.Errorf("rank %d: AllreduceNaive = %d, want 4", c.Rank(), nb[0])
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestCollectiveRootOutsideGroupPanics(t *testing.T) {
	err := runWithTimeout(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			return nil
		}
		if err := c.Shrink([]int{0}); err != nil {
			return err
		}
		Bcast(c, []int{1}, 1) // root 1 is not a group member
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "not a member") {
		t.Fatalf("want 'not a member' panic, got %v", err)
	}
}

// TestCollectiveUnwindsOnPeerDeath kills one rank while the others block
// in a full-world collective: every survivor must unwind with a typed
// peer error (or the abort that the first unwinding survivor triggers)
// instead of hanging forever.
func TestCollectiveUnwindsOnPeerDeath(t *testing.T) {
	var entered sync.WaitGroup
	entered.Add(3)
	err := runWithTimeout(t, 4, func(c *Comm) error {
		if c.Rank() == 3 {
			entered.Wait() // let the survivors commit to the collective first
			time.Sleep(10 * time.Millisecond)
			kill(t, c)
			return nil
		}
		buf := make([]float32, 1024)
		entered.Done()
		Allreduce(c, buf, OpSum) // must unwind, not block
		return errors.New("allreduce completed despite dead peer")
	})
	if err == nil {
		t.Fatal("want error from surviving ranks, got nil")
	}
	if strings.Contains(err.Error(), "completed despite") {
		t.Fatalf("collective completed with a dead member: %v", err)
	}
	pe, ok := PeerErrorFrom(err)
	if !ok || pe.Rank != 3 {
		t.Fatalf("want a peer error for rank 3 in %v", err)
	}
}

// TestIAllreduceWaitPropagatesPeerFailure: the async path must surface
// the same typed failure as the blocking one.
func TestIAllreduceWaitPropagatesPeerFailure(t *testing.T) {
	err := runWithTimeout(t, 3, func(c *Comm) error {
		if c.Rank() == 2 {
			kill(t, c)
			return nil
		}
		// Wait until the registry has seen the death so launch ordering
		// cannot race the kill.
		for len(c.FailedPeers()) == 0 {
			time.Sleep(time.Millisecond)
		}
		buf := make([]float32, 64)
		req := IAllreduce(c, buf, OpSum)
		req.Wait()
		return errors.New("IAllreduce.Wait returned despite dead peer")
	})
	if err == nil {
		t.Fatal("want error, got nil")
	}
	pe, ok := PeerErrorFrom(err)
	if !ok || pe.Rank != 2 {
		t.Fatalf("want a peer error for rank 2 in %v", err)
	}
}

// TestWaitPeerAware: an unknown failure surfaces as a value (withdrawing
// the receive); a known failure is filtered out and a real message wins.
func TestWaitPeerAware(t *testing.T) {
	const goTag, dataTag = 9, 7
	err := runWithTimeout(t, 3, func(c *Comm) error {
		switch c.Rank() {
		case 1:
			kill(t, c)
			return nil
		case 2:
			c.Recv(0, goTag) // wait until rank 0 has absorbed the failure
			c.Send(0, dataTag, []int64{42})
			return nil
		case 0:
			req := c.Irecv(AnySource, dataTag)
			_, _, werr := c.WaitPeerAware(req, nil)
			if werr == nil {
				return errors.New("WaitPeerAware: want peer error, got message")
			}
			pe, ok := transport.AsPeerError(werr)
			if !ok || pe.Rank != 1 {
				t.Errorf("WaitPeerAware error = %v, want peer error for rank 1", werr)
			}
			// The receive was withdrawn; post a fresh one that filters the
			// known death and must deliver rank 2's message.
			c.Send(2, goTag, nil)
			req = c.Irecv(AnySource, dataTag)
			payload, st, werr := c.WaitPeerAware(req, func(r int) bool { return r == 1 })
			if werr != nil {
				return werr
			}
			if st.Source != 2 || payload.([]int64)[0] != 42 {
				t.Errorf("WaitPeerAware delivered src=%d payload=%v, want src=2 [42]", st.Source, payload)
			}
			return nil
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestSendToDeadPeerUnwinds: a send to a rank the transport reports dead
// unwinds the sender like a collective does, with the PeerError.
func TestSendToDeadPeerUnwinds(t *testing.T) {
	err := runWithTimeout(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			kill(t, c)
			return nil
		}
		for len(c.FailedPeers()) == 0 {
			time.Sleep(time.Millisecond)
		}
		c.Send(1, 5, []int64{1})
		return errors.New("Send to a dead rank returned")
	})
	if pe, ok := PeerErrorFrom(err); !ok || pe.Rank != 1 {
		t.Fatalf("Send to dead rank: %v, want an unwind carrying a peer error for rank 1", err)
	}
}

// TestWaitWatchesTheGroup: Comm.Wait unwinds on a group member's death even
// while it waits for a live peer, and ignores a death outside the group —
// the exchange drain's contract.
func TestWaitWatchesTheGroup(t *testing.T) {
	const goTag, dataTag = 9, 7
	err := runWithTimeout(t, 3, func(c *Comm) error {
		if c.Rank() == 1 {
			kill(t, c)
			return nil
		}
		for len(c.FailedPeers()) == 0 {
			time.Sleep(time.Millisecond)
		}
		if c.Rank() == 2 {
			c.Recv(0, goTag)
			c.Send(0, dataTag, []int64{42})
			return nil
		}
		// Rank 0 waits for live rank 2 while dead rank 1 is in its group.
		gerr := c.Guard(func() error {
			c.Wait(c.Irecv(2, dataTag))
			return errors.New("Wait returned despite a dead group member")
		})
		if pe, ok := PeerErrorFrom(gerr); !ok || pe.Rank != 1 {
			t.Errorf("Wait with a dead group member: %v, want an unwind naming rank 1", gerr)
		}
		// Outside the group the death is no news: the message arrives.
		if err := c.Shrink([]int{0, 2}); err != nil {
			return err
		}
		req := c.Irecv(2, dataTag)
		c.Send(2, goTag, nil)
		if payload, st := c.Wait(req); st.Source != 2 || payload.([]int64)[0] != 42 {
			t.Errorf("Wait after the shrink delivered src=%d payload=%v, want src=2 [42]", st.Source, payload)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestCancelRecv withdraws a posted receive; a message sent afterwards is
// queued as unexpected and matched by the next receive, not the withdrawn
// one.
func TestCancelRecv(t *testing.T) {
	w := NewWorld(2)
	c0, c1 := w.Comm(0), w.Comm(1)
	req := c0.Irecv(1, 3)
	if !c0.CancelRecv(req) {
		t.Fatal("CancelRecv: want true for an unmatched receive")
	}
	c1.Send(0, 3, []int64{7})
	if done, _, _ := req.Test(); done {
		t.Fatal("withdrawn receive stole a message")
	}
	payload, _ := c0.Recv(1, 3)
	if payload.([]int64)[0] != 7 {
		t.Fatalf("Recv after cancel = %v, want [7]", payload)
	}
	if c0.CancelRecv(req) {
		t.Fatal("CancelRecv: want false for an already-withdrawn receive")
	}
}

// TestCloseWakesBlockedRecv: a watchdog's Close must unwind a blocked
// receive with ErrCommClosed instead of stranding the goroutine.
func TestCloseWakesBlockedRecv(t *testing.T) {
	err := runWithTimeout(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			return nil
		}
		go func() {
			time.Sleep(20 * time.Millisecond)
			c.Close()
		}()
		c.Recv(1, 4) // never satisfied; must unwind on Close
		return errors.New("Recv returned without a message")
	})
	if err == nil || !errors.Is(err, ErrCommClosed) {
		t.Fatalf("want ErrCommClosed unwind, got %v", err)
	}
}

func TestNotePeerFailureManual(t *testing.T) {
	w := NewWorld(3)
	c := w.Comm(0)
	c.NotePeerFailure(transport.PeerError{Rank: 2, Phase: transport.PhaseRecv})
	c.NotePeerFailure(transport.PeerError{Rank: 2, Phase: transport.PhaseSend}) // duplicate: ignored
	if got := c.FailedPeers(); len(got) != 1 || got[0] != 2 {
		t.Fatalf("FailedPeers = %v, want [2]", got)
	}
	if pe := c.PeerFailure(2); pe == nil || pe.Phase != transport.PhaseRecv {
		t.Fatalf("PeerFailure(2) = %v, want first-recorded phase", pe)
	}
	if pe := c.PeerFailure(1); pe != nil {
		t.Fatalf("PeerFailure(1) = %v, want nil", pe)
	}
}

func TestSetCollSeqRealign(t *testing.T) {
	w := NewWorld(2)
	c := w.Comm(0)
	c.SetCollSeq(c.CollSeq() + 5)
	if got := c.CollSeq(); got != 5 {
		t.Fatalf("CollSeq = %d, want 5", got)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("SetCollSeq rewind: want panic")
		}
	}()
	c.SetCollSeq(1)
}

func TestEnterGeneration(t *testing.T) {
	c := NewWorld(2).Comm(0)
	c.SetCollSeq(7)
	if err := c.EnterGeneration(2); err != nil || c.Generation() != 2 || c.CollSeq() != 2<<32 {
		t.Fatalf("EnterGeneration(2): err %v, generation %d, sequence %#x", err, c.Generation(), c.CollSeq())
	}
	if err := c.EnterGeneration(2); err == nil {
		t.Fatal("re-entering the open generation: want an error")
	}
	if got := collTagGeneration(collTag(c.CollSeq()+5, 3)); got != 2 {
		t.Fatalf("a generation-2 collective's tag decodes to generation %d", got)
	}
}
