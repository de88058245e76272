package mpi

import (
	"fmt"
	"sync"
	"testing"

	"plshuffle/internal/transport"
)

// TestGrowInproc exercises the latent-rank join shape the elastic trainer
// uses on the inproc backend: a 5-slot world where ranks 0..3 form the
// initial collective group (rank 4's slot is latent), run collectives, then
// every rank — including the joiner — realigns its collective sequence and
// Grows to the full world, after which collectives ring over all 5.
func TestGrowInproc(t *testing.T) {
	w := NewWorld(5)
	initial := []int{0, 1, 2, 3}
	full := []int{0, 1, 2, 3, 4}
	errs := make([]error, 5)
	var wg sync.WaitGroup
	for r := 0; r < 5; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			if r < 4 {
				if err := c.Shrink(initial); err != nil {
					errs[r] = err
					return
				}
				buf := []int64{int64(r)}
				Allreduce(c, buf, OpSum)
				if buf[0] != 0+1+2+3 {
					errs[r] = fmt.Errorf("pre-join allreduce = %d, want 6", buf[0])
					return
				}
			}
			// Join point: all members (and the joiner) realign the collective
			// sequence above every member's current value, then Grow.
			c.SetCollSeq(1 << 16)
			if err := c.Grow(5, full); err != nil {
				errs[r] = err
				return
			}
			if c.Size() != 5 || c.GroupSize() != 5 || c.GroupRank() != r {
				errs[r] = fmt.Errorf("post-grow shape: size=%d group=%d gidx=%d", c.Size(), c.GroupSize(), c.GroupRank())
				return
			}
			c.Barrier()
			buf := []int64{int64(r)}
			Allreduce(c, buf, OpSum)
			if buf[0] != 0+1+2+3+4 {
				errs[r] = fmt.Errorf("post-join allreduce = %d, want 10", buf[0])
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

// TestGrowDegradedWorld grows a world that previously shrank around a dead
// rank: the joiner's slot sits above the original world size and the dead
// rank stays excluded.
func TestGrowDegradedWorld(t *testing.T) {
	w := NewWorld(5)
	// Rank 1 is dead; ranks 0,2,3 survive, rank 4 joins later.
	grown := []int{0, 2, 3, 4}
	errs := make([]error, 5)
	var wg sync.WaitGroup
	for _, r := range grown {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			c := w.Comm(r)
			if r != 4 {
				if err := c.Shrink([]int{0, 2, 3}); err != nil {
					errs[r] = err
					return
				}
			}
			c.SetCollSeq(1 << 16)
			if err := c.Grow(5, grown); err != nil {
				errs[r] = err
				return
			}
			if c.GroupSize() != 4 {
				errs[r] = fmt.Errorf("group size %d, want 4", c.GroupSize())
				return
			}
			buf := []int64{1}
			Allreduce(c, buf, OpSum)
			if buf[0] != 4 {
				errs[r] = fmt.Errorf("allreduce over grown degraded group = %d, want 4", buf[0])
			}
		}(r)
	}
	wg.Wait()
	for r, err := range errs {
		if err != nil {
			t.Errorf("rank %d: %v", r, err)
		}
	}
}

func TestGrowValidation(t *testing.T) {
	w := NewWorld(2)
	c := w.Comm(0)
	for name, tc := range map[string]struct {
		size  int
		group []int
	}{
		"zero size":    {0, []int{0}},
		"empty group":  {3, nil},
		"out of range": {3, []int{0, 3}},
		"unsorted":     {3, []int{1, 0}},
		"duplicate":    {3, []int{0, 0}},
		"missing own":  {3, []int{1, 2}},
	} {
		if err := c.Grow(tc.size, tc.group); err == nil {
			t.Errorf("%s: Grow(%d, %v) accepted", name, tc.size, tc.group)
		}
	}
	// Valid growth from the full 2-world to a 3-world.
	if err := c.Grow(3, []int{0, 1, 2}); err != nil {
		t.Fatal(err)
	}
	if c.Size() != 3 || c.GroupSize() != 3 {
		t.Fatalf("size=%d group=%d after Grow", c.Size(), c.GroupSize())
	}
}

func TestPendingJoinsQueue(t *testing.T) {
	w := NewWorld(1)
	c := w.Comm(0)
	if got := c.PendingJoins(); len(got) != 0 {
		t.Fatalf("fresh comm has %d pending joins", len(got))
	}
	c.NoteJoinRequest(transport.JoinRequest{Rank: 4, Addr: "127.0.0.1:1"})
	c.NoteJoinRequest(transport.JoinRequest{Rank: 5, Addr: "127.0.0.1:2"})
	got := c.PendingJoins()
	if len(got) != 2 || got[0].Rank != 4 || got[1].Rank != 5 {
		t.Fatalf("PendingJoins = %+v", got)
	}
	if got := c.PendingJoins(); len(got) != 0 {
		t.Fatalf("queue not drained: %+v", got)
	}
}
