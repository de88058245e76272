package mpi

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

// runOrFail runs fn across n ranks and fails the test on any rank error.
func runOrFail(t *testing.T, n int, fn func(c *Comm) error) {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- Run(n, fn) }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(30 * time.Second):
		t.Fatal("mpi test deadlocked (30s timeout)")
	}
}

func TestWorldBasics(t *testing.T) {
	w := NewWorld(4)
	if w.Size() != 4 {
		t.Fatalf("Size() = %d, want 4", w.Size())
	}
	for r := 0; r < 4; r++ {
		c := w.Comm(r)
		if c.Rank() != r || c.Size() != 4 {
			t.Fatalf("rank %d: Rank()=%d Size()=%d", r, c.Rank(), c.Size())
		}
	}
}

func TestNewWorldPanicsOnZero(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewWorld(0) did not panic")
		}
	}()
	NewWorld(0)
}

func TestSendRecvBasic(t *testing.T) {
	runOrFail(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 7, []int{1, 2, 3})
			return nil
		}
		payload, st := c.Recv(0, 7)
		got := payload.([]int)
		if st.Source != 0 || st.Tag != 7 {
			return fmt.Errorf("status = %+v", st)
		}
		if len(got) != 3 || got[0] != 1 || got[2] != 3 {
			return fmt.Errorf("payload = %v", got)
		}
		return nil
	})
}

func TestSendCopiesSlices(t *testing.T) {
	runOrFail(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			buf := []float32{1, 2, 3}
			c.Send(1, 0, buf)
			buf[0] = 99 // must not be visible to receiver
			c.Barrier()
			return nil
		}
		c.Barrier()
		payload, _ := c.Recv(0, 0)
		if got := payload.([]float32)[0]; got != 1 {
			return fmt.Errorf("receiver saw mutated buffer: %v", got)
		}
		return nil
	})
}

func TestTagMatching(t *testing.T) {
	runOrFail(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Send(1, 5, []byte("tag5"))
			c.Send(1, 9, []byte("tag9"))
			return nil
		}
		// Receive in the opposite order of sending: tag matching must pick
		// the right message regardless of arrival order.
		p9, _ := c.Recv(0, 9)
		p5, _ := c.Recv(0, 5)
		if string(p9.([]byte)) != "tag9" || string(p5.([]byte)) != "tag5" {
			return fmt.Errorf("tag matching wrong: got %v and %v", p9, p5)
		}
		return nil
	})
}

func TestFIFOPerSourceAndTag(t *testing.T) {
	const n = 100
	runOrFail(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			for i := 0; i < n; i++ {
				c.Send(1, 3, []int{i})
			}
			return nil
		}
		for i := 0; i < n; i++ {
			p, _ := c.Recv(0, 3)
			if p.([]int)[0] != i {
				return fmt.Errorf("message %d arrived out of order: got %d", i, p)
			}
		}
		return nil
	})
}

func TestAnySource(t *testing.T) {
	runOrFail(t, 4, func(c *Comm) error {
		if c.Rank() != 0 {
			c.Send(0, 1, []int{c.Rank()})
			return nil
		}
		seen := map[int]bool{}
		for i := 0; i < 3; i++ {
			p, st := c.Recv(AnySource, 1)
			if p.([]int)[0] != st.Source {
				return fmt.Errorf("payload %v does not match status source %d", p, st.Source)
			}
			seen[st.Source] = true
		}
		if len(seen) != 3 {
			return fmt.Errorf("expected messages from 3 distinct sources, got %v", seen)
		}
		return nil
	})
}

func TestIrecvBeforeSend(t *testing.T) {
	runOrFail(t, 2, func(c *Comm) error {
		if c.Rank() == 1 {
			req := c.Irecv(0, 0)
			c.Barrier() // guarantee the recv is posted before the send
			p, _ := req.Wait()
			if p.([]int)[0] != 123 {
				return fmt.Errorf("got %v", p)
			}
			return nil
		}
		c.Barrier()
		c.Send(1, 0, []int{123})
		return nil
	})
}

func TestTestNonBlocking(t *testing.T) {
	runOrFail(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Barrier() // let rank 1 observe "not done" first
			c.Send(1, 0, []int{1})
			return nil
		}
		req := c.Irecv(0, 0)
		if ok, _, _ := req.Test(); ok {
			return fmt.Errorf("Test reported completion before any send")
		}
		c.Barrier()
		for {
			if ok, p, _ := req.Test(); ok {
				if p.([]int)[0] != 1 {
					return fmt.Errorf("got %v", p)
				}
				return nil
			}
		}
	})
}

func TestSendRecvExchangeNoDeadlock(t *testing.T) {
	runOrFail(t, 2, func(c *Comm) error {
		other := 1 - c.Rank()
		c.Isend(other, 0, []int{c.Rank()})
		p, _ := c.Recv(other, 0)
		if p.([]int)[0] != other {
			return fmt.Errorf("exchange got %v, want %d", p, other)
		}
		return nil
	})
}

func TestWaitAll(t *testing.T) {
	runOrFail(t, 2, func(c *Comm) error {
		if c.Rank() == 0 {
			reqs := make([]*Request, 10)
			for i := range reqs {
				reqs[i] = c.Irecv(1, i)
			}
			WaitAll(reqs)
			for i, r := range reqs {
				p, _ := r.Wait()
				if p.([]int)[0] != i {
					return fmt.Errorf("req %d: got %v", i, p)
				}
			}
			return nil
		}
		for i := 9; i >= 0; i-- {
			c.Send(0, i, []int{i})
		}
		return nil
	})
}

func TestBarrierOrdering(t *testing.T) {
	var mu sync.Mutex
	phase := make(map[int]int)
	runOrFail(t, 8, func(c *Comm) error {
		for p := 0; p < 5; p++ {
			mu.Lock()
			phase[c.Rank()] = p
			// No rank may be more than one phase away from any other while
			// inside the critical section between barriers.
			for r, rp := range phase {
				if rp < p-1 || rp > p+1 {
					mu.Unlock()
					return fmt.Errorf("rank %d at phase %d while rank %d at %d", r, rp, c.Rank(), p)
				}
			}
			mu.Unlock()
			c.Barrier()
		}
		return nil
	})
}

func TestNegativeUserTagPanics(t *testing.T) {
	err := Run(2, func(c *Comm) error {
		if c.Rank() == 0 {
			c.Isend(1, -5, nil)
		}
		return nil
	})
	if err == nil || !strings.Contains(err.Error(), "negative") {
		t.Fatalf("negative user tag produced %v, want an error naming it", err)
	}
}

// TestSendToSelfPanics: every send path refuses the own rank as it refuses
// one out of range, before the transport sees the frame.
func TestSendToSelfPanics(t *testing.T) {
	for name, send := range map[string]func(c *Comm){
		"Isend": func(c *Comm) { c.Isend(c.Rank(), 0, []int{1}) },
		"Send":  func(c *Comm) { c.Send(c.Rank(), 0, []int{1}) },
	} {
		err := Run(2, func(c *Comm) error {
			if c.Rank() == 1 {
				send(c)
			}
			return nil
		})
		if err == nil || !strings.Contains(err.Error(), "addressed itself") {
			t.Fatalf("%s to the own rank produced %v, want the refusal", name, err)
		}
	}
}

func TestAbortUnblocksPeers(t *testing.T) {
	// One rank fails while its peers wait in a collective; Run must abort
	// the world instead of deadlocking (MPI_Abort semantics).
	done := make(chan error, 1)
	go func() {
		done <- Run(4, func(c *Comm) error {
			if c.Rank() == 2 {
				return fmt.Errorf("rank 2 storage full")
			}
			buf := []float64{1}
			Allreduce(c, buf, OpSum) // blocks forever without abort
			return nil
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run returned nil despite rank failure")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Run deadlocked on rank failure")
	}
}

func TestAbortUnblocksBarrier(t *testing.T) {
	done := make(chan error, 1)
	go func() {
		done <- Run(3, func(c *Comm) error {
			if c.Rank() == 0 {
				return fmt.Errorf("boom")
			}
			c.Barrier()
			return nil
		})
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("Run returned nil despite rank failure")
		}
	case <-time.After(10 * time.Second):
		t.Fatal("Barrier deadlocked on rank failure")
	}
}

func TestRunCollectsErrors(t *testing.T) {
	want := fmt.Errorf("boom")
	err := Run(3, func(c *Comm) error {
		if c.Rank() == 1 {
			return want
		}
		return nil
	})
	if err == nil {
		t.Fatal("Run swallowed rank error")
	}
}

// --- collectives ---

func TestBcastAllSizesAllRoots(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 7, 8, 16} {
		for root := 0; root < size; root++ {
			size, root := size, root
			t.Run(fmt.Sprintf("size=%d/root=%d", size, root), func(t *testing.T) {
				runOrFail(t, size, func(c *Comm) error {
					buf := make([]float64, 5)
					if c.Rank() == root {
						for i := range buf {
							buf[i] = float64(root*100 + i)
						}
					}
					Bcast(c, buf, root)
					for i := range buf {
						if buf[i] != float64(root*100+i) {
							return fmt.Errorf("rank %d buf[%d]=%v", c.Rank(), i, buf[i])
						}
					}
					return nil
				})
			})
		}
	}
}

func TestAllreduceRingMatchesExpected(t *testing.T) {
	for _, size := range []int{1, 2, 3, 4, 5, 8, 13} {
		for _, n := range []int{0, 1, 3, 16, 100} {
			size, n := size, n
			t.Run(fmt.Sprintf("size=%d/n=%d", size, n), func(t *testing.T) {
				runOrFail(t, size, func(c *Comm) error {
					buf := make([]float64, n)
					for i := range buf {
						buf[i] = float64((c.Rank() + 1) * (i + 1))
					}
					Allreduce(c, buf, OpSum)
					total := float64(size*(size+1)) / 2
					for i := range buf {
						want := total * float64(i+1)
						if buf[i] != want {
							return fmt.Errorf("rank %d buf[%d]=%v want %v", c.Rank(), i, buf[i], want)
						}
					}
					return nil
				})
			})
		}
	}
}

func TestAllreduceNaiveMatchesRing(t *testing.T) {
	runOrFail(t, 5, func(c *Comm) error {
		a := make([]float32, 17)
		b := make([]float32, 17)
		for i := range a {
			a[i] = float32(c.Rank()) + float32(i)*0.5
			b[i] = a[i]
		}
		Allreduce(c, a, OpSum)
		AllreduceNaive(c, b, OpSum)
		for i := range a {
			if a[i] != b[i] {
				return fmt.Errorf("ring %v != naive %v at %d", a[i], b[i], i)
			}
		}
		return nil
	})
}

// TestAllreduceMin: the group-min the trainer takes over its members' store
// sizes in a degraded world.
func TestAllreduceMin(t *testing.T) {
	runOrFail(t, 6, func(c *Comm) error {
		buf := []int{c.Rank() + 3, -c.Rank()}
		Allreduce(c, buf, OpMin)
		if buf[0] != 3 || buf[1] != -5 {
			return fmt.Errorf("got %v, want [3 -5]", buf)
		}
		return nil
	})
}

func TestBackToBackCollectives(t *testing.T) {
	// Stress the collective sequencing: many different collectives issued
	// immediately after one another must not cross-match.
	runOrFail(t, 4, func(c *Comm) error {
		for iter := 0; iter < 50; iter++ {
			buf := []int{c.Rank() + iter}
			Allreduce(c, buf, OpSum)
			want := 4*iter + 6
			if buf[0] != want {
				return fmt.Errorf("iter %d: got %d want %d", iter, buf[0], want)
			}
			b := []int{0}
			if c.Rank() == iter%4 {
				b[0] = iter
			}
			Bcast(c, b, iter%4)
			if b[0] != iter {
				return fmt.Errorf("iter %d: bcast got %d", iter, b[0])
			}
		}
		return nil
	})
}

func TestGather(t *testing.T) {
	runOrFail(t, 4, func(c *Comm) error {
		out := Gather(c, []int{c.Rank(), c.Rank() * 10}, 2)
		if c.Rank() != 2 {
			if out != nil {
				return fmt.Errorf("non-root got non-nil gather result")
			}
			return nil
		}
		want := []int{0, 0, 1, 10, 2, 20, 3, 30}
		for i := range want {
			if out[i] != want[i] {
				return fmt.Errorf("gather out = %v", out)
			}
		}
		return nil
	})
}

func TestAllgatherVarLen(t *testing.T) {
	runOrFail(t, 4, func(c *Comm) error {
		send := make([]int, c.Rank())
		for i := range send {
			send[i] = c.Rank()*100 + i
		}
		out := AllgatherVarLen(c, send)
		for r := 0; r < 4; r++ {
			if len(out[r]) != r {
				return fmt.Errorf("out[%d] has len %d, want %d", r, len(out[r]), r)
			}
			for i, v := range out[r] {
				if v != r*100+i {
					return fmt.Errorf("out[%d][%d] = %d", r, i, v)
				}
			}
		}
		return nil
	})
}

func TestAllreduceQuickProperty(t *testing.T) {
	// Property: Allreduce(OpSum) equals the locally computed global sum for
	// arbitrary world sizes and payloads.
	check := func(seed int64, sizeRaw, nRaw uint8) bool {
		size := int(sizeRaw)%6 + 1
		n := int(nRaw) % 32
		vals := make([][]float64, size)
		want := make([]float64, n)
		for r := 0; r < size; r++ {
			vals[r] = make([]float64, n)
			for i := range vals[r] {
				vals[r][i] = float64((seed+int64(r*31+i))%1000) / 7
				want[i] += vals[r][i]
			}
		}
		ok := true
		err := Run(size, func(c *Comm) error {
			buf := append([]float64(nil), vals[c.Rank()]...)
			Allreduce(c, buf, OpSum)
			for i := range buf {
				diff := buf[i] - want[i]
				if diff < -1e-9 || diff > 1e-9 {
					return fmt.Errorf("mismatch")
				}
			}
			return nil
		})
		if err != nil {
			ok = false
		}
		return ok
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkAllreduceRing8x4096(b *testing.B) {
	benchAllreduce(b, 8, 4096, false)
}

func BenchmarkAllreduceNaive8x4096(b *testing.B) {
	benchAllreduce(b, 8, 4096, true)
}

// BenchmarkAblationAllreduceRing/Naive time the two gradient-reduction
// algorithms at a model-gradient-sized buffer (DESIGN.md §5).
func BenchmarkAblationAllreduceRing(b *testing.B)  { benchAllreduce(b, 8, 65536, false) }
func BenchmarkAblationAllreduceNaive(b *testing.B) { benchAllreduce(b, 8, 65536, true) }

func benchAllreduce(b *testing.B, size, n int, naive bool) {
	b.ReportAllocs()
	b.SetBytes(int64(4 * n))
	for i := 0; i < b.N; i++ {
		err := Run(size, func(c *Comm) error {
			buf := make([]float32, n)
			if naive {
				AllreduceNaive(c, buf, OpSum)
			} else {
				Allreduce(c, buf, OpSum)
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkPingPong(b *testing.B) {
	w := NewWorld(2)
	var wg sync.WaitGroup
	wg.Add(2)
	stop := b.N
	go func() {
		defer wg.Done()
		c := w.Comm(0)
		msg := make([]float32, 256)
		for i := 0; i < stop; i++ {
			c.Send(1, 0, msg)
			c.Recv(1, 1)
		}
	}()
	go func() {
		defer wg.Done()
		c := w.Comm(1)
		msg := make([]float32, 256)
		for i := 0; i < stop; i++ {
			c.Recv(0, 0)
			c.Send(0, 1, msg)
		}
	}()
	wg.Wait()
}
