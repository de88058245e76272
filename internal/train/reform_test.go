package train

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"testing"

	"plshuffle/internal/mpi"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/transport"
	"plshuffle/internal/transport/faultinject"
	"plshuffle/internal/transport/transporttest"
)

// TestReformationMatrix drives the one re-formation path (bumpGeneration +
// resync) through every way a group changes shape — a rank killed
// mid-exchange, a rank joining, and both in one run — with a fixed Q and with
// the controller live. Whatever the event, from it on every live member
// reports one Q trajectory and ends on bitwise-identical weights, the stores
// stay disjoint and conserved, every member's collective sequence sits in
// the generation the events opened, and no goroutine outlives the world.
func TestReformationMatrix(t *testing.T) {
	const (
		epochs  = 5
		samples = 512
		q       = 0.3
	)
	cases := []struct {
		name string
		// Ranks [0, members) found the world; with members < capacity, rank
		// `members` asks to join during epoch 0 and is admitted before epoch 1.
		capacity, members int
		// victim crashes on its second exchange frame of killEpoch (-1: none) —
		// or, with inRebalance, on its second frame of the post-join rebalance.
		victim, killEpoch int
		inRebalance       bool
		policy            string // OnPeerFail when a victim is scripted; "" = degrade
		// event is the first epoch the re-formed group shares; generations is
		// how many re-formations every live member has been through by the end.
		event, generations int
	}{
		{name: "shrink", capacity: 4, members: 4, victim: 2, killEpoch: 1, event: 1, generations: 1},
		{name: "grow", capacity: 5, members: 4, victim: -1, event: 1, generations: 1},
		{name: "grow-then-shrink", capacity: 5, members: 4, victim: 2, killEpoch: 2, event: 1, generations: 2},
		{name: "grow-killed-in-rebalance-abort", capacity: 5, members: 4, victim: 2, inRebalance: true, policy: "abort"},
		{name: "grow-killed-in-rebalance-degrade", capacity: 5, members: 4, victim: 2, inRebalance: true, policy: "degrade", event: 1, generations: 2},
	}
	type backend struct {
		name string
		mk   func(wrap transporttest.WrapConn) transporttest.Backend
	}
	backends := []backend{{"inproc", func(w transporttest.WrapConn) transporttest.Backend {
		return transporttest.InprocWrapped("reform-inproc", w)
	}}}
	if !testing.Short() {
		backends = append(backends, backend{"tcp", func(w transporttest.WrapConn) transporttest.Backend {
			return transporttest.TCPWrapped("reform-tcp", w, chaosTCPConfig)
		}})
	}
	for _, be := range backends {
		for _, tc := range cases {
			for _, autoQ := range []bool{false, true} {
				be, tc, autoQ := be, tc, autoQ
				if tc.inRebalance && autoQ {
					continue // the controller plays no part in a failed admission
				}
				mode := "fixed-q"
				if autoQ {
					mode = "auto-q"
				}
				t.Run(be.name+"/"+tc.name+"/"+mode, func(t *testing.T) {
					base := runtime.NumGoroutine()
					ds := testDataset(t, samples, 4)
					mkConfig := func(workers int) Config {
						cfg := baseConfig(t, ds, workers, shuffle.Partial(q))
						cfg.Epochs = epochs
						cfg.PartitionLocality = 0.8 // skewed shards: the controller has something to decide
						cfg.AutoQ = autoQ
						cfg.Elastic = tc.members < tc.capacity
						if tc.victim >= 0 {
							cfg.OnPeerFail = "degrade"
							if tc.policy != "" {
								cfg.OnPeerFail = tc.policy
							}
						}
						return cfg
					}

					conns := make([]*faultinject.Conn, tc.capacity)
					scripts := chaosScripts(tc.capacity, tc.victim, tc.killEpoch, false)
					if tc.inRebalance {
						// The join is admitted before epoch 1, in generation 1.
						scripts[tc.victim].CrashTag = shuffle.RebalanceTag(1, 1)
					}
					b := be.mk(chaosWrap(scripts, conns))
					collSeq := make([]int, tc.capacity)
					var joinOnce sync.Once
					rrs, errs := runRanks(t, b, tc.capacity, func(c *mpi.Comm) (*RankResult, error) {
						defer func() { collSeq[c.Rank()] = c.CollSeq() }()
						if c.Rank() >= tc.members {
							// A joining process whose JoinRank fails (by error or by unwinding)
							// exits, and its sockets close with it; here the endpoint
							// outlives the goroutine unless it is torn down by hand.
							joined := false
							defer func() {
								if !joined {
									conns[c.Rank()].Kill()
								}
							}()
							rr, err := JoinRank(c, mkConfig(tc.capacity))
							joined = err == nil
							return rr, err
						}
						cfg := mkConfig(tc.members)
						if tc.members < tc.capacity {
							// The view a bootstrap at -world members -max-world
							// capacity produces: the spare slot is wired but outside
							// the group.
							founders := make([]int, tc.members)
							for i := range founders {
								founders[i] = i
							}
							if err := c.Grow(tc.members, founders); err != nil {
								return nil, err
							}
							if c.Rank() == 0 {
								cfg.testIterHook = func(epoch, iter int) error {
									if epoch == 0 && iter == 2 {
										joinOnce.Do(func() { c.NoteJoinRequest(transport.JoinRequest{Rank: tc.members}) })
									}
									return nil
								}
							}
						}
						return RunRank(c, cfg)
					})

					var live []int
					for r := 0; r < tc.capacity; r++ {
						if r == tc.victim {
							if !errors.Is(errs[r], faultinject.ErrCrashed) {
								t.Fatalf("victim rank %d: err %v, want the scripted crash", r, errs[r])
							}
							continue
						}
						// A death inside the post-join rebalance is fatal to the
						// admission: the joiner under either policy, and under
						// abort every member, ends with the typed error naming the
						// victim. Under degrade the members re-form without the
						// joiner and train on from the stores the abandoned
						// rebalance left untouched.
						if tc.inRebalance && (tc.policy == "abort" || r >= tc.members) {
							if pe, ok := mpi.PeerErrorFrom(errs[r]); !ok || pe.Rank != tc.victim {
								t.Fatalf("rank %d: err %v, want one carrying a PeerError for rank %d", r, errs[r], tc.victim)
							}
							continue
						}
						if errs[r] != nil {
							t.Fatalf("rank %d failed: %v", r, errs[r])
						}
						live = append(live, r)
					}
					if len(live) == 0 {
						waitGoroutines(t, base)
						return
					}

					// One trajectory from the event on: same epochs recorded, same Q
					// planned — a disrupted or skipped epoch included.
					trajectoryFrom := func(r int) map[int]float64 {
						qs := make(map[int]float64)
						for _, es := range rrs[r].Epochs {
							if es.Epoch >= tc.event {
								qs[es.Epoch] = es.ControllerQ
							}
						}
						return qs
					}
					ref := trajectoryFrom(live[0])
					if len(ref) != epochs-tc.event {
						t.Fatalf("rank %d recorded %d epochs from epoch %d on, want %d", live[0], len(ref), tc.event, epochs-tc.event)
					}
					for _, r := range live[1:] {
						got := trajectoryFrom(r)
						if len(got) != len(ref) {
							t.Fatalf("rank %d recorded %d epochs from epoch %d on, rank %d recorded %d", r, len(got), tc.event, live[0], len(ref))
						}
						for e, want := range ref {
							if got[e] != want {
								t.Errorf("ranks %d and %d disagree on epoch %d Q: %v vs %v", live[0], r, e, want, got[e])
							}
						}
					}
					for e, got := range ref {
						if autoQ != (got > 0) {
							t.Errorf("epoch %d recorded controller q=%v with AutoQ=%t", e, got, autoQ)
						}
					}

					w0 := flatWeights(rrs[live[0]].FinalParams)
					for _, r := range live[1:] {
						requireBitwiseEqual(t, fmt.Sprintf("rank %d weights", r), w0, flatWeights(rrs[r].FinalParams))
					}

					// Stores: no sample twice, none invented; nothing lost unless a
					// rank died, and then at most its own (1+Q)·N/M storage area.
					holder := make(map[int]int)
					for _, r := range live {
						for _, id := range rrs[r].FinalLocalIDs {
							if id < 0 || id >= samples {
								t.Fatalf("rank %d holds out-of-range sample %d", r, id)
							}
							if prev, dup := holder[id]; dup {
								t.Fatalf("sample %d held by ranks %d and %d", id, prev, r)
							}
							holder[id] = r
						}
					}
					lost := samples - len(holder)
					maxLost := 0
					if tc.victim >= 0 {
						maxLost = int(float64(samples/tc.members)*(1+q)) + tc.capacity
					}
					if lost > maxLost {
						t.Errorf("%d samples missing from the live stores, at most %d may have died with a rank", lost, maxLost)
					}

					for _, r := range live {
						if collSeq[r] < tc.generations<<32 {
							t.Errorf("rank %d ended at collective sequence %#x, below generation %d's base", r, collSeq[r], tc.generations)
						}
					}
					waitGoroutines(t, base)
				})
			}
		}
	}
}
