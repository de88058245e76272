package shuffle

import (
	"fmt"
	"sync/atomic"
	"testing"
	"testing/quick"

	"plshuffle/internal/data"
	"plshuffle/internal/mpi"
	"plshuffle/internal/store"
)

func TestStrategyBasics(t *testing.T) {
	if GlobalShuffling().String() != "global" || LocalShuffling().String() != "local" {
		t.Fatal("strategy names wrong")
	}
	if Partial(0.1).String() != "partial-0.1" {
		t.Fatalf("partial name: %s", Partial(0.1).String())
	}
	if err := Partial(1.5).Validate(); err == nil {
		t.Fatal("Q=1.5 validated")
	}
	if err := Partial(-0.1).Validate(); err == nil {
		t.Fatal("Q=-0.1 validated")
	}
	for _, s := range []Strategy{GlobalShuffling(), LocalShuffling(), Partial(0.5)} {
		if err := s.Validate(); err != nil {
			t.Fatalf("%s: %v", s, err)
		}
	}
	if f := Partial(0.3).StorageFactor(128); f != 1.3 {
		t.Fatalf("PLS storage factor %v", f)
	}
	if f := GlobalShuffling().StorageFactor(128); f != 128 {
		t.Fatalf("GS storage factor %v", f)
	}
	if f := LocalShuffling().StorageFactor(128); f != 1 {
		t.Fatalf("LS storage factor %v", f)
	}
}

func TestPartitionCoversExactly(t *testing.T) {
	for _, tc := range []struct{ n, m int }{{10, 2}, {100, 7}, {64, 64}, {1000, 1}, {17, 5}} {
		parts, err := Partition(tc.n, tc.m, 42)
		if err != nil {
			t.Fatalf("Partition(%d,%d): %v", tc.n, tc.m, err)
		}
		if len(parts) != tc.m {
			t.Fatalf("got %d parts", len(parts))
		}
		seen := make([]bool, tc.n)
		for r, part := range parts {
			want := tc.n / tc.m
			if r < tc.n%tc.m {
				want++
			}
			if len(part) != want {
				t.Fatalf("n=%d m=%d rank %d has %d samples, want %d", tc.n, tc.m, r, len(part), want)
			}
			for _, id := range part {
				if id < 0 || id >= tc.n || seen[id] {
					t.Fatalf("invalid or duplicate id %d", id)
				}
				seen[id] = true
			}
		}
	}
}

func TestPartitionDeterministicAndSeedSensitive(t *testing.T) {
	a, _ := Partition(100, 4, 1)
	b, _ := Partition(100, 4, 1)
	c, _ := Partition(100, 4, 2)
	same, diff := true, false
	for r := range a {
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				same = false
			}
			if a[r][i] != c[r][i] {
				diff = true
			}
		}
	}
	if !same {
		t.Fatal("same seed gave different partitions")
	}
	if !diff {
		t.Fatal("different seeds gave identical partitions")
	}
}

func TestPartitionErrors(t *testing.T) {
	if _, err := Partition(0, 1, 1); err == nil {
		t.Fatal("n=0 accepted")
	}
	if _, err := Partition(10, 0, 1); err == nil {
		t.Fatal("m=0 accepted")
	}
	if _, err := Partition(3, 5, 1); err == nil {
		t.Fatal("m>n accepted")
	}
}

func TestSlots(t *testing.T) {
	cases := []struct {
		q       float64
		n, m, k int
	}{
		{0, 1000, 10, 0},
		{1, 1000, 10, 100},
		{0.1, 1000, 10, 10},
		{0.3, 1000, 10, 30},
		{0.25, 100, 10, 2}, // floor(2.5) = 2
		{0.5, 7, 2, 1},     // floor(7/2)=3, floor(1.5)=1
		{1, 7, 2, 3},       // capped at floor(n/m)
	}
	for _, c := range cases {
		if got := Slots(c.q, c.n, c.m); got != c.k {
			t.Errorf("Slots(%v,%d,%d) = %d, want %d", c.q, c.n, c.m, got, c.k)
		}
	}
}

func TestPlanExchangeBalancedPerSlot(t *testing.T) {
	// The heart of Algorithm 1: for every slot, the destinations chosen
	// across ranks form a permutation of the ranks, so each rank receives
	// exactly one sample per slot.
	const n, m = 120, 8
	parts, _ := Partition(n, m, 5)
	plans := make([]ExchangePlan, m)
	for r := 0; r < m; r++ {
		p, err := PlanExchange(r, m, parts[r], 0.4, n, 5, 3)
		if err != nil {
			t.Fatal(err)
		}
		plans[r] = p
	}
	k := Slots(0.4, n, m)
	for i := 0; i < k; i++ {
		seen := make([]bool, m)
		for r := 0; r < m; r++ {
			d := plans[r].Dests[i]
			if d < 0 || d >= m || seen[d] {
				t.Fatalf("slot %d: destination %d from rank %d breaks the permutation", i, d, r)
			}
			seen[d] = true
		}
	}
	counts := CountImbalance(plans, m)
	for r, c := range counts {
		if c != k {
			t.Fatalf("rank %d receives %d samples, want %d", r, c, k)
		}
	}
}

func TestPlanExchangeSendIDsAreLocalAndDistinct(t *testing.T) {
	const n, m = 60, 4
	parts, _ := Partition(n, m, 9)
	for r := 0; r < m; r++ {
		p, err := PlanExchange(r, m, parts[r], 0.5, n, 9, 0)
		if err != nil {
			t.Fatal(err)
		}
		local := map[int]bool{}
		for _, id := range parts[r] {
			local[id] = true
		}
		seen := map[int]bool{}
		for _, id := range p.SendIDs {
			if !local[id] {
				t.Fatalf("rank %d plans to send non-local sample %d", r, id)
			}
			if seen[id] {
				t.Fatalf("rank %d plans to send sample %d twice", r, id)
			}
			seen[id] = true
		}
	}
}

func TestPlanExchangeErrors(t *testing.T) {
	if _, err := PlanExchange(5, 4, []int{1}, 0.5, 100, 1, 0); err == nil {
		t.Fatal("bad rank accepted")
	}
	if _, err := PlanExchange(0, 4, []int{1}, 1.5, 100, 1, 0); err == nil {
		t.Fatal("bad fraction accepted")
	}
	// 100 samples over 4 workers: 25 slots at q=1, but only 3 local samples.
	if _, err := PlanExchange(0, 4, []int{1, 2, 3}, 1, 100, 1, 0); err == nil {
		t.Fatal("insufficient local samples accepted")
	}
}

func TestPlanExchangeQZeroEmpty(t *testing.T) {
	p, err := PlanExchange(0, 4, []int{1, 2, 3}, 0, 100, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if p.Slots() != 0 {
		t.Fatalf("q=0 plan has %d slots", p.Slots())
	}
}

// mkStores partitions a synthetic dataset and fills one store per worker.
func mkStores(t testing.TB, n, m int, seed uint64, capacity int64) ([]*store.Local, *data.Dataset) {
	t.Helper()
	d, err := data.Generate(data.SyntheticSpec{
		Name: "t", NumSamples: n, NumVal: 0, Classes: 2, FeatureDim: 4,
		ClassSep: 2, NoiseStd: 1, Bytes: 10, Seed: seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	parts, err := Partition(n, m, seed)
	if err != nil {
		t.Fatal(err)
	}
	stores := make([]*store.Local, m)
	for r := 0; r < m; r++ {
		stores[r] = store.NewLocal(capacity)
		for _, id := range parts[r] {
			if err := stores[r].Put(d.Train[id]); err != nil {
				t.Fatal(err)
			}
		}
	}
	return stores, d
}

// checkConservation verifies that the union of all stores is exactly the
// full dataset with no duplicates, and per-store counts are unchanged.
func checkConservation(t *testing.T, stores []*store.Local, n int, perWorker []int) {
	t.Helper()
	seen := make([]bool, n)
	for r, st := range stores {
		if st.Len() != perWorker[r] {
			t.Fatalf("rank %d holds %d samples, want %d", r, st.Len(), perWorker[r])
		}
		for _, id := range st.IDs() {
			if seen[id] {
				t.Fatalf("sample %d present on two workers", id)
			}
			seen[id] = true
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("sample %d lost", id)
		}
	}
}

func runEpochs(t *testing.T, stores []*store.Local, n int, q float64, seed uint64, epochs int, chunk int) {
	t.Helper()
	m := len(stores)
	err := mpi.Run(m, func(c *mpi.Comm) error {
		sched, err := NewScheduler(c, stores[c.Rank()], q, n, seed)
		if err != nil {
			return err
		}
		for e := 0; e < epochs; e++ {
			if err := sched.Scheduling(e); err != nil {
				return err
			}
			if chunk > 0 {
				for posted := 0; posted < sched.Slots(); posted += chunk {
					if _, err := sched.Communicate(chunk); err != nil {
						return err
					}
				}
			}
			if err := sched.Synchronize(); err != nil {
				return err
			}
			if err := sched.CleanLocalStorage(); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestExchangeConservation(t *testing.T) {
	for _, tc := range []struct {
		n, m   int
		q      float64
		epochs int
	}{
		{64, 4, 0.25, 3},
		{120, 8, 0.5, 2},
		{100, 10, 1.0, 2},
		{60, 3, 0.0, 2},
		{63, 4, 0.3, 3}, // non-divisible N
	} {
		t.Run(fmt.Sprintf("n=%d,m=%d,q=%v", tc.n, tc.m, tc.q), func(t *testing.T) {
			stores, _ := mkStores(t, tc.n, tc.m, 11, 0)
			perWorker := make([]int, tc.m)
			for r := range stores {
				perWorker[r] = stores[r].Len()
			}
			runEpochs(t, stores, tc.n, tc.q, 11, tc.epochs, 0)
			checkConservation(t, stores, tc.n, perWorker)
		})
	}
}

func TestExchangeQZeroMovesNothing(t *testing.T) {
	stores, _ := mkStores(t, 40, 4, 3, 0)
	before := make([][]int, 4)
	for r := range stores {
		before[r] = stores[r].IDs()
	}
	runEpochs(t, stores, 40, 0, 3, 2, 0)
	for r := range stores {
		after := stores[r].IDs()
		for i := range after {
			if after[i] != before[r][i] {
				t.Fatalf("q=0 moved samples on rank %d", r)
			}
		}
	}
}

func TestExchangeActuallyMoves(t *testing.T) {
	stores, _ := mkStores(t, 100, 4, 7, 0)
	before := make([]map[int]bool, 4)
	for r := range stores {
		before[r] = map[int]bool{}
		for _, id := range stores[r].IDs() {
			before[r][id] = true
		}
	}
	runEpochs(t, stores, 100, 0.5, 7, 1, 0)
	moved := 0
	for r := range stores {
		for _, id := range stores[r].IDs() {
			if !before[r][id] {
				moved++
			}
		}
	}
	// 4 workers x 12 slots: some sends are self-sends, but with high
	// probability most samples moved.
	if moved < 10 {
		t.Fatalf("only %d samples changed workers", moved)
	}
}

func TestExchangeDeterministicAcrossRuns(t *testing.T) {
	final := func() [][]int {
		stores, _ := mkStores(t, 80, 4, 21, 0)
		runEpochs(t, stores, 80, 0.4, 21, 3, 0)
		out := make([][]int, 4)
		for r := range stores {
			out[r] = stores[r].IDs()
		}
		return out
	}
	a, b := final(), final()
	for r := range a {
		if len(a[r]) != len(b[r]) {
			t.Fatal("nondeterministic store sizes")
		}
		for i := range a[r] {
			if a[r][i] != b[r][i] {
				t.Fatal("exchange outcome is nondeterministic")
			}
		}
	}
}

func TestChunkedCommunicateMatchesBulk(t *testing.T) {
	bulk, _ := mkStores(t, 96, 4, 13, 0)
	chunked, _ := mkStores(t, 96, 4, 13, 0)
	runEpochs(t, bulk, 96, 0.5, 13, 2, 0)
	runEpochs(t, chunked, 96, 0.5, 13, 2, 3) // 3 slots per Communicate call
	for r := range bulk {
		a, b := bulk[r].IDs(), chunked[r].IDs()
		if len(a) != len(b) {
			t.Fatal("bulk and chunked sizes differ")
		}
		for i := range a {
			if a[i] != b[i] {
				t.Fatal("bulk and chunked exchanges diverged")
			}
		}
	}
}

func TestSchedulerPeakStorageBound(t *testing.T) {
	// Section III-A: PLS requires at most (1+Q)·N/M local storage.
	const n, m = 100, 4
	const q = 0.5
	stores, _ := mkStores(t, n, m, 17, 0)
	runEpochs(t, stores, n, q, 17, 3, 0)
	perWorkerBytes := int64(n / m * 10) // 10 bytes per sample
	bound := int64(float64(perWorkerBytes) * (1 + q))
	for r, st := range stores {
		if st.Peak() > bound {
			t.Fatalf("rank %d peak storage %d exceeds (1+Q)N/M bound %d", r, st.Peak(), bound)
		}
		if st.Peak() <= perWorkerBytes {
			t.Fatalf("rank %d peak %d never exceeded N/M=%d; exchange not overlapping storage", r, st.Peak(), perWorkerBytes)
		}
	}
}

func TestSchedulerCapacityEnforced(t *testing.T) {
	// A store sized exactly N/M cannot absorb the exchange: Put must fail
	// and the scheduler must surface the error.
	const n, m = 40, 4
	stores, _ := mkStores(t, n, m, 19, int64(n/m*10)) // capacity = N/M bytes exactly
	err := mpi.Run(m, func(c *mpi.Comm) error {
		sched, err := NewScheduler(c, stores[c.Rank()], 0.5, n, 19)
		if err != nil {
			return err
		}
		return sched.RunEpochExchange(0)
	})
	if err == nil {
		t.Fatal("capacity-starved exchange succeeded")
	}
}

func TestSchedulerLifecycleErrors(t *testing.T) {
	stores, _ := mkStores(t, 8, 1, 1, 0)
	err := mpi.Run(1, func(c *mpi.Comm) error {
		sched, err := NewScheduler(c, stores[0], 0.5, 8, 1)
		if err != nil {
			return err
		}
		if _, err := sched.Communicate(-1); err == nil {
			return fmt.Errorf("Communicate before Scheduling succeeded")
		}
		if err := sched.Synchronize(); err == nil {
			return fmt.Errorf("Synchronize before Scheduling succeeded")
		}
		if err := sched.CleanLocalStorage(); err == nil {
			return fmt.Errorf("CleanLocalStorage before Synchronize succeeded")
		}
		if err := sched.Scheduling(0); err != nil {
			return err
		}
		if err := sched.Scheduling(1); err == nil {
			return fmt.Errorf("double Scheduling succeeded")
		}
		if err := sched.Synchronize(); err != nil {
			return err
		}
		if err := sched.Scheduling(1); err == nil {
			return fmt.Errorf("Scheduling over a synchronized but uncleaned epoch succeeded")
		}
		return sched.CleanLocalStorage()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestNewSchedulerValidation(t *testing.T) {
	st := store.NewLocal(0)
	w := mpi.NewWorld(1)
	if _, err := NewScheduler(nil, st, 0.5, 10, 1); err == nil {
		t.Fatal("nil comm accepted")
	}
	if _, err := NewScheduler(w.Comm(0), nil, 0.5, 10, 1); err == nil {
		t.Fatal("nil store accepted")
	}
	if _, err := NewScheduler(w.Comm(0), st, 2, 10, 1); err == nil {
		t.Fatal("bad q accepted")
	}
	if _, err := NewScheduler(w.Comm(0), st, 0.5, 0, 1); err == nil {
		t.Fatal("bad totalN accepted")
	}
	if _, err := NewScheduler(w.Comm(0), st, 0.5, 10, 1, Options{}, Options{DedupBudget: 1}); err == nil {
		t.Fatal("two Options values accepted")
	}
}

// ExchangeResult reports what one epoch's exchange moved.
type ExchangeResult struct {
	SentIDs  []int
	Received []data.Sample
}

// Execute runs the plan synchronously over the communicator: it posts all
// non-blocking sends and ANY_SOURCE receives (lines 4-5 of Algorithm 1),
// then waits for completion (line 7). A slot aimed at this rank itself keeps
// its sample and sends nothing. lookup resolves a local sample ID to its
// sample (typically store.Local.Get). The per-epoch message tag keeps epochs
// separated.
//
// Execute is the bulk (non-overlapped) variant — Algorithm 1 as written, one
// frame per sample — kept beside the test that holds the Scheduler's
// coalesced, chunk-wise exchange to it.
func (p ExchangePlan) Execute(c *mpi.Comm, lookup func(id int) (data.Sample, error)) (ExchangeResult, error) {
	res := ExchangeResult{SentIDs: append([]int(nil), p.SendIDs...)}
	var recvReqs []*mpi.Request
	for i, id := range p.SendIDs {
		s, err := lookup(id)
		if err != nil {
			return ExchangeResult{}, fmt.Errorf("shuffle: Execute: looking up sample %d: %w", id, err)
		}
		if p.Dests[i] == c.Rank() {
			res.Received = append(res.Received, s)
			continue
		}
		c.Isend(p.Dests[i], ExchangeTag(p.Epoch), s.Encode())
		recvReqs = append(recvReqs, c.Irecv(mpi.AnySource, ExchangeTag(p.Epoch)))
	}
	for _, req := range recvReqs {
		payload, _ := req.Wait()
		s, err := data.DecodeSample(payload.([]byte))
		if err != nil {
			return ExchangeResult{}, fmt.Errorf("shuffle: Execute: decoding received sample: %w", err)
		}
		res.Received = append(res.Received, s)
	}
	return res, nil
}

func TestExecuteBulkMatchesPlan(t *testing.T) {
	const n, m = 48, 4
	stores, _ := mkStores(t, n, m, 23, 0)
	results := make([]ExchangeResult, m)
	err := mpi.Run(m, func(c *mpi.Comm) error {
		plan, err := PlanExchange(c.Rank(), m, stores[c.Rank()].IDs(), 0.5, n, 23, 0)
		if err != nil {
			return err
		}
		res, err := plan.Execute(c, stores[c.Rank()].Get)
		if err != nil {
			return err
		}
		results[c.Rank()] = res
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	k := Slots(0.5, n, m)
	sentAll := map[int]int{}
	recvAll := map[int]int{}
	for r := 0; r < m; r++ {
		if len(results[r].SentIDs) != k || len(results[r].Received) != k {
			t.Fatalf("rank %d sent %d received %d, want %d", r, len(results[r].SentIDs), len(results[r].Received), k)
		}
		for _, id := range results[r].SentIDs {
			sentAll[id]++
		}
		for _, s := range results[r].Received {
			recvAll[s.ID]++
		}
	}
	if len(sentAll) != len(recvAll) {
		t.Fatalf("sent %d distinct, received %d distinct", len(sentAll), len(recvAll))
	}
	for id, c := range sentAll {
		if c != 1 || recvAll[id] != 1 {
			t.Fatalf("sample %d sent %d times, received %d times", id, c, recvAll[id])
		}
	}
}

func TestUnbalancedAblationIsUnbalanced(t *testing.T) {
	const n, m = 1024, 16
	parts, _ := Partition(n, m, 31)
	balanced := make([]ExchangePlan, m)
	unbalanced := make([]ExchangePlan, m)
	for r := 0; r < m; r++ {
		var err error
		balanced[r], err = PlanExchange(r, m, parts[r], 0.5, n, 31, 0)
		if err != nil {
			t.Fatal(err)
		}
		unbalanced[r], err = PlanExchangeUnbalanced(r, m, parts[r], 0.5, n, 31, 0)
		if err != nil {
			t.Fatal(err)
		}
	}
	k := Slots(0.5, n, m)
	bc := CountImbalance(balanced, m)
	uc := CountImbalance(unbalanced, m)
	for _, c := range bc {
		if c != k {
			t.Fatalf("balanced plan receive count %d != %d", c, k)
		}
	}
	spread := 0
	for _, c := range uc {
		if c != k {
			spread++
		}
	}
	if spread == 0 {
		t.Fatal("uniform-random destinations happened to be perfectly balanced; expected skew")
	}
}

func TestEpochOrderIsPermutation(t *testing.T) {
	check := func(seed uint64, epoch uint8, rank uint8, nRaw uint8) bool {
		n := int(nRaw)%32 + 1
		ids := make([]int, n)
		for i := range ids {
			ids[i] = i * 3
		}
		out := EpochOrder(ids, seed, int(epoch), int(rank))
		if len(out) != n {
			return false
		}
		seen := map[int]bool{}
		for _, v := range out {
			if seen[v] {
				return false
			}
			seen[v] = true
		}
		for _, id := range ids {
			if !seen[id] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(check, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestEpochOrderVariesByEpochAndRank(t *testing.T) {
	ids := make([]int, 64)
	for i := range ids {
		ids[i] = i
	}
	a := EpochOrder(ids, 1, 0, 0)
	b := EpochOrder(ids, 1, 1, 0)
	c := EpochOrder(ids, 1, 0, 1)
	same := func(x, y []int) bool {
		for i := range x {
			if x[i] != y[i] {
				return false
			}
		}
		return true
	}
	if same(a, b) {
		t.Fatal("epoch change did not change order")
	}
	if same(a, c) {
		t.Fatal("rank change did not change order")
	}
}

func TestGlobalEpochPartition(t *testing.T) {
	a, err := GlobalEpochPartition(100, 8, 5, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make([]bool, 100)
	for _, part := range a {
		for _, id := range part {
			if seen[id] {
				t.Fatalf("duplicate id %d", id)
			}
			seen[id] = true
		}
	}
	for id, ok := range seen {
		if !ok {
			t.Fatalf("missing id %d", id)
		}
	}
	b, _ := GlobalEpochPartition(100, 8, 5, 1)
	diff := false
	for r := range a {
		for i := range a[r] {
			if i < len(b[r]) && a[r][i] != b[r][i] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("global partition identical across epochs")
	}
	if _, err := GlobalEpochPartition(0, 1, 1, 0); err == nil {
		t.Fatal("n=0 accepted")
	}
}

func BenchmarkPlanExchange(b *testing.B) {
	parts, _ := Partition(16384, 16, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := PlanExchange(3, 16, parts[3], 0.3, 16384, 1, i); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFullExchange8Workers(b *testing.B) {
	const n, m = 2048, 8
	var wireBytes atomic.Int64 // sent bytes across all ranks and iterations
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		stores, _ := mkStores(b, n, m, 1, 0)
		b.StartTimer()
		err := mpi.Run(m, func(c *mpi.Comm) error {
			sched, err := NewScheduler(c, stores[c.Rank()], 0.3, n, 1)
			if err != nil {
				return err
			}
			if err := sched.RunEpochExchange(0); err != nil {
				return err
			}
			sent, _ := sched.CumulativeWireTraffic()
			wireBytes.Add(sent)
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(wireBytes.Load())/float64(b.N), "wire-bytes/op")
}
