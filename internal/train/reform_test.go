package train

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
	"testing"

	"plshuffle/internal/mpi"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/store"
	"plshuffle/internal/transport"
	"plshuffle/internal/transport/faultinject"
	"plshuffle/internal/transport/transporttest"
)

// TestReformationMatrix drives the one re-formation path (EnterGeneration +
// resync) through every way a group changes shape — a rank killed
// mid-exchange, a rank joining, and both in one run — with a fixed Q and with
// the controller live, and kills a member inside each of the boundary's
// agreements: the exchange's, the checkpoint's, the post-join rebalance's,
// and the recovery's own. Whatever the event, from it on every live member
// reports one Q trajectory and one realized Q per epoch and ends on
// bitwise-identical weights; every epoch after the last re-formation
// realizes the Q it planned; the stores stay disjoint and conserved, every
// re-formation deals them a ±1-balanced cover and they end as one; every
// member sits in the generation the events opened, and no goroutine outlives
// the world; under abort every survivor names the member that died first.
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
		// or, with inRebalance, on its frame of the post-join rebalance.
		victim, killEpoch int
		inRebalance       bool
		// agree names the boundary agreement agreeVictim dies inside, after its
		// first round reached only some peers: "exchange" (epoch 2's; under
		// abort, which commits locally, the victim dies on the first frame
		// after it instead — the loss all-reduce's, whose one element rank 3
		// holds), "checkpoint" (before epoch 2), "rebalance" (the post-join
		// one) or "reconcile" (the recovery from victim's death).
		agree       string
		agreeVictim int
		policy      string // OnPeerFail when a victim is scripted; "" = degrade
		// event is the first epoch the re-formed group shares; generations is
		// how many re-formations every live member has been through by the end.
		event, generations int
	}{
		{name: "shrink", capacity: 4, members: 4, victim: 2, killEpoch: 1, event: 1, generations: 1},
		{name: "grow", capacity: 5, members: 4, victim: -1, event: 1, generations: 1},
		{name: "grow-then-shrink", capacity: 5, members: 4, victim: 2, killEpoch: 2, event: 1, generations: 2},
		{name: "grow-killed-in-rebalance-abort", capacity: 5, members: 4, victim: 2, inRebalance: true, policy: "abort"},
		{name: "grow-killed-in-rebalance-degrade", capacity: 5, members: 4, victim: 2, inRebalance: true, policy: "degrade", event: 1, generations: 2},
		{name: "checkpoint-agree-killed-abort", capacity: 4, members: 4, victim: -1, agree: "checkpoint", agreeVictim: 2, policy: "abort"},
		{name: "checkpoint-agree-killed-degrade", capacity: 4, members: 4, victim: -1, agree: "checkpoint", agreeVictim: 2, policy: "degrade", event: 2, generations: 1},
		{name: "grow-killed-in-rebalance-agree-abort", capacity: 5, members: 4, victim: -1, inRebalance: true, agree: "rebalance", agreeVictim: 2, policy: "abort"},
		{name: "grow-killed-in-rebalance-agree-degrade", capacity: 5, members: 4, victim: -1, inRebalance: true, agree: "rebalance", agreeVictim: 2, policy: "degrade", event: 1, generations: 2},
		{name: "shrink-killed-in-reconcile-agree", capacity: 4, members: 4, victim: 2, killEpoch: 1, agree: "reconcile", agreeVictim: 1, policy: "degrade", event: 1, generations: 1},
		{name: "exchange-agree-killed-abort", capacity: 4, members: 4, victim: -1, agree: "exchange", agreeVictim: 3, policy: "abort"},
		{name: "exchange-agree-killed-degrade", capacity: 4, members: 4, victim: -1, agree: "exchange", agreeVictim: 3, policy: "degrade", event: 2, generations: 1},
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
				if (tc.inRebalance || tc.agree != "" || tc.policy == "abort") && autoQ {
					continue // the controller plays no part in a failed admission, an aborted run or an agreement
				}
				// killed lists the scripted deaths in order; survivors name the first.
				var killed []int
				if tc.victim >= 0 {
					killed = append(killed, tc.victim)
				}
				if tc.agree != "" {
					killed = append(killed, tc.agreeVictim)
				}
				mode := "fixed-q"
				if autoQ {
					mode = "auto-q"
				}
				t.Run(be.name+"/"+tc.name+"/"+mode, func(t *testing.T) {
					base := runtime.NumGoroutine()
					ds := testDataset(t, samples, 4)
					ckptDir := ""
					if tc.agree == "checkpoint" {
						ckptDir = t.TempDir()
					}
					mkConfig := func(workers int) Config {
						cfg := baseConfig(t, ds, workers, shuffle.Partial(q))
						cfg.Epochs = epochs
						cfg.PartitionLocality = 0.8 // skewed shards: the controller has something to decide
						cfg.AutoQ = autoQ
						cfg.Elastic = tc.members < tc.capacity
						cfg.CheckpointDir = ckptDir
						if len(killed) > 0 {
							cfg.OnPeerFail = "degrade"
							if tc.policy != "" {
								cfg.OnPeerFail = tc.policy
							}
						}
						return cfg
					}

					conns := make([]*faultinject.Conn, tc.capacity)
					scripts := chaosScripts(tc.capacity, tc.victim, tc.killEpoch, false)
					if tc.inRebalance && tc.agree == "" {
						// The join is admitted before epoch 1, in generation 1. A
						// member's surplus all goes to the joiner in one batched
						// frame; the victim dies sending it.
						scripts[tc.victim].CrashTag = shuffle.RebalanceTag(1, 1)
						scripts[tc.victim].CrashCount = 1
					}
					if tc.agree != "" {
						setAgreeHook(t, func(c *mpi.Comm, point string, epoch int) {
							if c.Rank() != tc.agreeVictim || point != tc.agree || (point == "checkpoint" || point == "exchange") && epoch != 2 {
								return
							}
							// The checkpoint's and the rebalance's agreement follow one
							// gather; the exchange's and the recovery's are the next
							// collective.
							seq, count := c.CollSeq(), 2
							if point == "checkpoint" || point == "rebalance" {
								seq++
							}
							if point == "exchange" && tc.policy == "abort" {
								count = 1
							}
							conns[c.Rank()].CrashOn(collTag(seq, 0), count)
						})
					}
					// dealt is each member's store as its latest rebalance left
					// it, and the generation that rebalance ran in.
					dealt, dealtGen := make([][]int, tc.capacity), make([]int, tc.capacity)
					restore := testRebalanced
					testRebalanced = func(c *mpi.Comm, st *store.Local) {
						dealt[c.Rank()], dealtGen[c.Rank()] = st.IDs(), c.Generation()
					}
					t.Cleanup(func() { testRebalanced = restore })
					b := be.mk(chaosWrap(scripts, conns))
					gens := make([]int, tc.capacity)
					var joinOnce sync.Once
					rrs, errs := runRanks(t, b, tc.capacity, func(c *mpi.Comm) (*RankResult, error) {
						defer func() { gens[c.Rank()] = c.Generation() }()
						if c.Rank() >= tc.members {
							return JoinRank(c, mkConfig(tc.capacity))
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
						if slices.Contains(killed, r) {
							if !errors.Is(errs[r], faultinject.ErrCrashed) {
								t.Fatalf("victim rank %d: err %v, want the scripted crash", r, errs[r])
							}
							continue
						}
						// Under abort every survivor ends with the typed error naming
						// the first death. A death inside the post-join rebalance is
						// fatal to the admission under either policy: the joiner says
						// so in one line. Under degrade the members re-form without
						// the joiner and train on from the stores the abandoned
						// rebalance left untouched.
						if tc.policy == "abort" || (tc.inRebalance && r >= tc.members) {
							if pe, ok := mpi.PeerErrorFrom(errs[r]); !ok || pe.Rank != killed[0] {
								t.Fatalf("rank %d: err %v, want one carrying a PeerError for rank %d", r, errs[r], killed[0])
							}
							line := fmt.Sprintf("admission before epoch 1 in generation 1 abandoned: member rank %d died", killed[0])
							if r >= tc.members && !strings.Contains(errs[r].Error(), line) {
								t.Fatalf("joiner: err %q, want it to say %q", errs[r], line)
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
					// One realized Q per epoch from the event on: a window commits
					// on every member or resets on every member. After the last
					// re-formation every epoch realizes the Q it planned — the
					// shrunk group plans over its live members.
					realized := func(r int) map[int]float64 {
						qs := make(map[int]float64)
						for _, es := range rrs[r].Epochs {
							if es.Epoch >= tc.event {
								qs[es.Epoch] = es.EffectiveQ
							}
						}
						return qs
					}
					refQ := realized(live[0])
					for _, r := range live[1:] {
						for e, got := range realized(r) {
							if got != refQ[e] {
								t.Errorf("ranks %d and %d disagree on epoch %d's realized Q: %v vs %v", live[0], r, e, refQ[e], got)
							}
						}
					}
					for _, r := range live {
						last := -1
						for _, es := range rrs[r].Epochs {
							if es.Disrupted || es.Skipped {
								last = es.Epoch
							}
						}
						for _, es := range rrs[r].Epochs {
							planned := q
							if autoQ {
								planned = es.ControllerQ
							}
							if es.Epoch > last && es.EffectiveQ != planned {
								t.Errorf("rank %d epoch %d (after the re-formation at %d): EffectiveQ = %v, want the planned %v", r, es.Epoch, last, es.EffectiveQ, planned)
							}
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
					maxLost := len(killed) * (int(float64(samples/tc.members)*(1+q)) + tc.capacity)
					if lost > maxLost {
						t.Errorf("%d samples missing from the live stores, at most %d may have died with a rank", lost, maxLost)
					}
					// The last rebalance left a ±1-balanced cover of what survived,
					// and the balanced exchanges planned over the live group keep it
					// one; nobody dying loses nothing.
					lo, hi := samples, 0
					for _, r := range live {
						lo, hi = min(lo, len(rrs[r].FinalLocalIDs)), max(hi, len(rrs[r].FinalLocalIDs))
					}
					if hi-lo > 1 || len(killed) == 0 && lost != 0 {
						t.Errorf("final stores hold %d..%d samples, %d missing; want a ±1-balanced cover", lo, hi, lost)
					}
					if len(killed) > 0 {
						// A shrink ends in a rebalance as a join does: in the last
						// generation every live member's store was dealt its ±1 share
						// of one disjoint cover of what survived.
						lo, hi, held := samples, 0, make(map[int]bool)
						for _, r := range live {
							if dealtGen[r] != gens[r] {
								t.Fatalf("rank %d: last rebalance in generation %d, want its final generation %d", r, dealtGen[r], gens[r])
							}
							lo, hi = min(lo, len(dealt[r])), max(hi, len(dealt[r]))
							for _, id := range dealt[r] {
								if held[id] {
									t.Fatalf("rebalance dealt sample %d twice", id)
								}
								held[id] = true
							}
						}
						if hi-lo > 1 || samples-len(held) > maxLost {
							t.Errorf("the last rebalance dealt %d..%d samples, %d missing; want a ±1-balanced cover of what survived", lo, hi, samples-len(held))
						}
					}

					for _, r := range live {
						if gens[r] < tc.generations {
							t.Errorf("rank %d ended in generation %d, want at least %d", r, gens[r], tc.generations)
						}
					}
					waitGoroutines(t, base)
				})
			}
		}
	}
}
