package cache

import (
	"fmt"
	"math/rand"
	"os"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"plshuffle/internal/data"
	"plshuffle/internal/store/shard"
)

// ingestTemp generates and ingests a dataset, returning its PFS view.
func ingestTemp(t testing.TB, n, perShard int) *shard.Dataset {
	t.Helper()
	ds, err := data.Generate(data.SyntheticSpec{
		Name: "cache-test", NumSamples: n, NumVal: 8, Classes: 4,
		FeatureDim: 16, ClassSep: 3, NoiseStd: 1, Bytes: 1000, Seed: 21,
	})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if _, err := shard.Ingest(dir, ds, perShard); err != nil {
		t.Fatal(err)
	}
	pfs, err := shard.OpenDataset(dir)
	if err != nil {
		t.Fatal(err)
	}
	return pfs
}

func TestTierHitMissEviction(t *testing.T) {
	pfs := ingestTemp(t, 128, 16) // 8 shards
	budget := 3 * pfs.Manifest().MaxShardBytes()
	tier, err := New(pfs, budget, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	for id := 0; id < 3; id++ {
		sh, err := tier.Acquire(id)
		if err != nil {
			t.Fatal(err)
		}
		if sh.ID() != id {
			t.Fatalf("acquired shard %d, got ID %d", id, sh.ID())
		}
		tier.Release(id)
	}
	st := tier.Stats()
	if st.Misses != 3 || st.Hits != 0 || st.Evictions != 0 {
		t.Fatalf("after 3 cold acquires: %+v", st)
	}
	if _, err := tier.Acquire(1); err != nil { // resident
		t.Fatal(err)
	}
	tier.Release(1)
	if st = tier.Stats(); st.Hits != 1 {
		t.Fatalf("resident acquire not a hit: %+v", st)
	}
	if _, err := tier.Acquire(7); err != nil { // forces one eviction
		t.Fatal(err)
	}
	tier.Release(7)
	st = tier.Stats()
	if st.Evictions != 1 || st.Misses != 4 {
		t.Fatalf("over-budget acquire: %+v", st)
	}
	if st.UsedBytes > budget || st.PeakBytes > budget {
		t.Fatalf("budget exceeded: used=%d peak=%d budget=%d", st.UsedBytes, st.PeakBytes, budget)
	}
}

func TestTierRejectsImpossibleBudget(t *testing.T) {
	pfs := ingestTemp(t, 64, 16)
	if _, err := New(pfs, 10, ""); err == nil {
		t.Fatal("budget smaller than one shard accepted")
	}
	tier, err := New(pfs, 2*pfs.Manifest().MaxShardBytes(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	// Pin two shards, then demand a third: nothing evictable.
	for id := 0; id < 2; id++ {
		if _, err := tier.Acquire(id); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := tier.Acquire(2); err == nil {
		t.Fatal("admission beyond an all-pinned budget succeeded")
	}
	tier.Release(0)
	tier.Release(1)
}

// TestTierBudgetInvariantProperty drives the tier with randomized
// concurrent acquire/release/prefetch traffic and asserts the core
// invariant after every operation: resident bytes never exceed the budget.
func TestTierBudgetInvariantProperty(t *testing.T) {
	pfs := ingestTemp(t, 256, 16) // 16 shards
	man := pfs.Manifest()
	for trial, budgetShards := range []int64{1, 2, 5} {
		budget := budgetShards * man.MaxShardBytes()
		tier, err := New(pfs, budget, "")
		if err != nil {
			t.Fatal(err)
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func(seed int64) {
				defer wg.Done()
				r := rand.New(rand.NewSource(seed))
				for op := 0; op < 200; op++ {
					id := r.Intn(man.NumShards)
					switch r.Intn(3) {
					case 0, 1:
						sh, err := tier.Acquire(id)
						if err != nil {
							continue // all-pinned budget: legitimate refusal
						}
						if sh.Count() != man.ShardSamples(id) {
							t.Errorf("shard %d count %d, want %d", id, sh.Count(), man.ShardSamples(id))
						}
						tier.Release(id)
					case 2:
						tier.Prefetch([]int{id})
					}
					if st := tier.Stats(); st.UsedBytes > budget {
						t.Errorf("trial %d: used %d exceeds budget %d", trial, st.UsedBytes, budget)
						return
					}
				}
			}(int64(trial*100 + g))
		}
		wg.Wait()
		st := tier.Stats()
		if st.UsedBytes > budget || st.PeakBytes > budget {
			t.Fatalf("trial %d: final used=%d peak=%d budget=%d", trial, st.UsedBytes, st.PeakBytes, budget)
		}
		tier.Close()
	}
}

func TestEpochStreamReadsPlan(t *testing.T) {
	pfs := ingestTemp(t, 96, 16) // 6 shards
	man := pfs.Manifest()
	tier, err := New(pfs, 2*man.MaxShardBytes(), "")
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()

	// Three windows of two shards; samples in shard order within windows.
	windows := [][]int{{0, 1}, {2, 3}, {4, 5}}
	var order []shard.Ref
	bounds := []int{0}
	for _, win := range windows {
		for _, sh := range win {
			for i := 0; i < man.ShardSamples(sh); i++ {
				order = append(order, shard.Ref{Shard: sh, Index: i})
			}
		}
		bounds = append(bounds, len(order))
	}
	es, err := tier.OpenEpoch(windows, bounds, order)
	if err != nil {
		t.Fatal(err)
	}
	feat := make([]float32, man.FeatureDim)
	seen := make(map[int]bool)
	for {
		id, label, sim, err := es.ReadInto(feat)
		if err != nil {
			if es.Remaining() != 0 {
				t.Fatalf("read error with %d samples left: %v", es.Remaining(), err)
			}
			break
		}
		if seen[id] {
			t.Fatalf("sample %d delivered twice", id)
		}
		seen[id] = true
		if label < 0 || sim <= 0 {
			t.Fatalf("sample %d: bad metadata label=%d sim=%d", id, label, sim)
		}
	}
	if len(seen) != man.NumSamples {
		t.Fatalf("stream delivered %d samples, want %d", len(seen), man.NumSamples)
	}
	es.Close()
	st := tier.Stats()
	if st.UsedBytes > tier.Budget() {
		t.Fatalf("budget exceeded during stream: %d > %d", st.UsedBytes, tier.Budget())
	}
}

func TestOpenEpochRejectsMalformedPlans(t *testing.T) {
	pfs := ingestTemp(t, 32, 16)
	tier, err := New(pfs, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	order := []shard.Ref{{Shard: 0, Index: 0}}
	cases := []struct {
		windows [][]int
		bounds  []int
	}{
		{[][]int{{0}}, []int{0}},            // too few bounds
		{[][]int{{0}}, []int{1, 1}},         // does not start at 0
		{[][]int{{0}}, []int{0, 0}},         // does not end at len(order)
		{[][]int{{0}, {1}}, []int{0, 1, 0}}, // decreasing
	}
	for i, c := range cases {
		if _, err := tier.OpenEpoch(c.windows, c.bounds, order); err == nil {
			t.Errorf("case %d: malformed plan accepted", i)
		}
	}
	// A ref outside the pinned window must fail at read time.
	es, err := tier.OpenEpoch([][]int{{1}}, []int{0, 1}, order)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	if _, _, _, err := es.ReadInto(make([]float32, 64)); err == nil {
		t.Error("read of a shard outside the window succeeded")
	}
}

func TestTierPrefetchWarmsCache(t *testing.T) {
	pfs := ingestTemp(t, 64, 16) // 4 shards
	tier, err := New(pfs, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	tier.Prefetch([]int{0, 1, 2, 3})
	var total int64
	for _, b := range pfs.Manifest().ShardFileBytes {
		total += b
	}
	// Wait for the background worker to land all four shards.
	deadline := time.Now().Add(5 * time.Second)
	for tier.Stats().UsedBytes < total {
		if time.Now().After(deadline) {
			t.Fatalf("prefetcher stalled: %+v", tier.Stats())
		}
		time.Sleep(time.Millisecond)
	}
	for id := 0; id < 4; id++ {
		if _, err := tier.Acquire(id); err != nil {
			t.Fatal(err)
		}
		tier.Release(id)
	}
	st := tier.Stats()
	if st.Hits != 4 || st.Misses != 0 {
		t.Fatalf("prefetched shards not served as hits: %+v", st)
	}
	if st.PrefetchBytes != total || st.PFSReadBytes != total {
		t.Fatalf("prefetch accounting: %+v, want %d bytes", st, total)
	}
}

// dealEpochs builds one rank's reads for consecutive epochs the way the
// trainer does: a 1/ranks share of the shards (re-dealt every epoch, or
// kept), visited in a fresh order each epoch and cut into windows.
func dealEpochs(r *rand.Rand, shards, ranks, epochs, window int, redeal bool) [][][]int {
	var out [][][]int
	var mine []int
	for e := 0; e < epochs; e++ {
		if e == 0 || redeal {
			mine = r.Perm(shards)[:shards/ranks]
		}
		order := append([]int(nil), mine...)
		r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
		var windows [][]int
		for lo := 0; lo < len(order); lo += window {
			windows = append(windows, order[lo:min(lo+window, len(order))])
		}
		out = append(out, windows)
	}
	return out
}

// readEpoch streams one epoch (every sample of every window, in shard
// order) and checks each sample is the one the plan names — a slot
// overwritten under a pin would deliver another shard's. It records which
// cache entry served each pinned shard.
func readEpoch(t *testing.T, tier *Tier, man shard.Manifest, windows [][]int, served map[*entry]bool) {
	t.Helper()
	bounds, order := planOf(man, windows)
	es, err := tier.OpenEpoch(windows, bounds, order)
	if err != nil {
		t.Fatal(err)
	}
	defer es.Close()
	feat := make([]float32, man.FeatureDim)
	win := -1
	for _, ref := range order {
		id, _, _, err := es.ReadInto(feat)
		if err != nil {
			t.Fatal(err)
		}
		if want := ref.Shard*man.SamplesPerShard + ref.Index; id != want {
			t.Fatalf("read sample %d, the plan names %d (shard %d)", id, want, ref.Shard)
		}
		if es.win != win {
			win = es.win
			tier.mu.Lock()
			for _, sh := range windows[win] {
				served[tier.entries[sh]] = true
			}
			used := tier.st.UsedBytes
			tier.mu.Unlock()
			if used > tier.Budget() {
				t.Fatalf("used %d bytes of a %d byte budget", used, tier.Budget())
			}
		}
	}
}

// beladyFetches is the offline oracle: the fewest PFS fetches a cache of
// the given number of slots needs for the epochs' reads when the shards of
// a window are pinned together — on a miss with no free slot, evict the
// unpinned shard read again farthest in the future. ahead is how many
// epochs past the current one the plan is known; beyond it a shard counts
// as never read again. It returns the fetch count of each epoch.
func beladyFetches(epochs [][][]int, slots, ahead int) []int {
	var seq, ends []int
	for _, windows := range epochs {
		for _, win := range windows {
			seq = append(seq, win...)
		}
		ends = append(ends, len(seq))
	}
	resident := map[int]bool{}
	fetches, pos := make([]int, len(epochs)), 0
	for e, windows := range epochs {
		known := ends[min(e+ahead, len(ends)-1)]
		for _, win := range windows {
			pinned := map[int]bool{}
			for _, id := range win {
				if !resident[id] {
					fetches[e]++
					if len(resident) == slots {
						victim, far := -1, -1
						for r := range resident {
							next := known
							for q := pos + 1; q < known && next == known; q++ {
								if seq[q] == r {
									next = q
								}
							}
							if !pinned[r] && next > far {
								victim, far = r, next
							}
						}
						delete(resident, victim)
					}
					resident[id] = true
				}
				pinned[id] = true
				pos++
			}
		}
	}
	return fetches
}

// TestTierFetchesEqualBeladyOptimum: told the whole future, the tier
// fetches exactly as often as the offline optimum — the prefetcher moves
// fetches earlier but never adds one, whatever the interleaving.
func TestTierFetchesEqualBeladyOptimum(t *testing.T) {
	pfs := ingestTemp(t, 1024, 4) // 256 shards, 64 a rank
	man := pfs.Manifest()
	for _, slots := range []int{9, 15, 31} {
		for _, redeal := range []bool{false, true} {
			epochs := dealEpochs(rand.New(rand.NewSource(int64(slots))), man.NumShards, 4, 3, slots/2, redeal)
			tier, err := New(pfs, int64(slots)*man.MaxShardBytes(), "")
			if err != nil {
				t.Fatal(err)
			}
			for _, windows := range epochs {
				for _, win := range windows {
					tier.Prefetch(win)
				}
			}
			served := map[*entry]bool{}
			for _, windows := range epochs {
				readEpoch(t, tier, man, windows, served)
			}
			st := tier.Stats()
			tier.Close()
			got, want := int(st.PFSReadBytes/man.MaxShardBytes()), 0
			for _, n := range beladyFetches(epochs, slots, len(epochs)) {
				want += n
			}
			if got != want {
				t.Errorf("slots=%d redeal=%v: %d PFS fetches, the optimum is %d (%+v)", slots, redeal, got, want, st)
			}
			if st.PeakBytes > tier.Budget() {
				t.Errorf("slots=%d redeal=%v: peak %d over budget %d", slots, redeal, st.PeakBytes, tier.Budget())
			}
		}
	}
}

// TestTierDoesNotThrashOnWorkloadShape is the regression test for the
// 15.7 % hit rate: on the storage workload's shape (64 shards a rank, room
// for 15, windows of 7, the next epoch announced when one ends) every
// fetched shard serves a read before it is evicted, so none is fetched
// twice inside an epoch and an epoch never reads more than the rank's share.
func TestTierDoesNotThrashOnWorkloadShape(t *testing.T) {
	pfs := ingestTemp(t, 1024, 4)
	man := pfs.Manifest()
	size := man.MaxShardBytes()
	for _, redeal := range []bool{true, false} {
		epochs := dealEpochs(rand.New(rand.NewSource(7)), man.NumShards, 4, 3, 7, redeal)
		tier, err := New(pfs, 15*size+size/2, "")
		if err != nil {
			t.Fatal(err)
		}
		served := map[*entry]bool{}
		var before int64
		for e, windows := range epochs {
			readEpoch(t, tier, man, windows, served)
			st := tier.Stats()
			if got, share := st.PFSReadBytes-before, int64(len(epochs[e])*7)*size; got > share {
				t.Errorf("redeal=%v epoch %d: read %d PFS bytes, the rank's share is %d", redeal, e, got, share)
			}
			before = st.PFSReadBytes
			if e+1 < len(epochs) {
				for _, win := range epochs[e+1] {
					tier.Prefetch(win)
				}
			}
		}
		st := tier.Stats()
		tier.Close()
		if fetched := int(st.PFSReadBytes / size); fetched != len(served) {
			t.Errorf("redeal=%v: %d shards fetched but only %d served a read: prefetched shards were evicted unused (%+v)",
				redeal, fetched, len(served), st)
		}
	}
}

// flipBit corrupts one bit in the middle of a PFS shard file.
func flipBit(t *testing.T, pfs *shard.Dataset, id int) {
	t.Helper()
	path := shard.Path(pfs.Dir(), id)
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b[len(b)/2] ^= 0x10
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestTierFailedLandingLeaksNothing: a corrupt shard makes Acquire fail
// naming it — for every concurrent waiter, on the demand path and behind a
// prefetch — and gives back the slot and the bytes, so a one-slot tier
// still serves the next good shard; Close leaves no goroutine behind.
func TestTierFailedLandingLeaksNothing(t *testing.T) {
	pfs := ingestTemp(t, 64, 16) // 4 shards
	const bad, good = 2, 3
	flipBit(t, pfs, bad)
	baseline := runtime.NumGoroutine()
	for _, prefetch := range []bool{false, true} {
		tier, err := New(pfs, pfs.Manifest().MaxShardBytes(), "")
		if err != nil {
			t.Fatal(err)
		}
		if prefetch {
			tier.Prefetch([]int{bad, good})
			for deadline := time.Now().Add(5 * time.Second); tier.Stats().PrefetchBytes == 0; time.Sleep(time.Millisecond) {
				if time.Now().After(deadline) {
					t.Fatalf("the prefetcher did not get past the corrupt shard: %+v", tier.Stats())
				}
			}
		}
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, err := tier.Acquire(bad)
				if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("shard %d", bad)) || !strings.Contains(err.Error(), "checksum") {
					t.Errorf("prefetch=%v: Acquire of the corrupt shard: %v", prefetch, err)
				}
			}()
		}
		wg.Wait()
		if st := tier.Stats(); st.UsedBytes > tier.Budget() || (!prefetch && st.UsedBytes != 0) {
			t.Errorf("prefetch=%v: reservation leaked: %+v", prefetch, st)
		}
		sh, err := tier.Acquire(good)
		if err != nil || sh.ID() != good {
			t.Fatalf("prefetch=%v: Acquire of a good shard after the failure: %v", prefetch, err)
		}
		tier.Release(good)
		if st := tier.Stats(); st.UsedBytes != pfs.Manifest().ShardFileBytes[good] {
			t.Errorf("prefetch=%v: used bytes %d after one good shard", prefetch, st.UsedBytes)
		}
		if err := tier.Close(); err != nil {
			t.Fatal(err)
		}
	}
	for deadline := time.Now().Add(5 * time.Second); runtime.NumGoroutine() > baseline; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after Close, %d before New", runtime.NumGoroutine(), baseline)
		}
	}
}

// TestTierWaitNsCountsEveryStall: a cold Acquire waits for its own fetch, a
// "hit" on a prefetch still in flight waits too, and a resident shard costs
// nothing.
func TestTierWaitNsCountsEveryStall(t *testing.T) {
	pfs := ingestTemp(t, 64, 16)
	const latency = 50 * time.Millisecond
	pfs.SetPFSOptions(shard.PFSOptions{PerShardLatency: latency})
	tier, err := New(pfs, 0, "")
	if err != nil {
		t.Fatal(err)
	}
	defer tier.Close()
	acquire := func(id int) Stats {
		t.Helper()
		if _, err := tier.Acquire(id); err != nil {
			t.Fatal(err)
		}
		tier.Release(id)
		return tier.Stats()
	}
	cold := acquire(0)
	if cold.Misses != 1 || cold.WaitNs < int64(latency) {
		t.Fatalf("cold acquire: %+v, want one miss and at least %v of wait", cold, latency)
	}
	if again := acquire(0); again.Hits != 1 || again.WaitNs != cold.WaitNs {
		t.Fatalf("resident acquire: %+v, want a hit and no more wait than %d", again, cold.WaitNs)
	}
	tier.Prefetch([]int{1})
	for tier.Stats().UsedBytes == cold.UsedBytes { // until the prefetcher has reserved shard 1
		time.Sleep(100 * time.Microsecond)
	}
	if stalled := acquire(1); stalled.Hits != 2 || stalled.Misses != 1 || stalled.WaitNs <= cold.WaitNs {
		t.Fatalf("acquire of an in-flight prefetch: %+v, want a hit that waited", stalled)
	}
}
