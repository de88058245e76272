package shuffle

import (
	"fmt"
	"testing"

	"plshuffle/internal/mpi"
)

func TestWeightedOrderIsPermutation(t *testing.T) {
	ids := []int{3, 1, 4, 1 + 4, 9, 2, 6}
	w := map[int]float64{3: 10, 9: 0.1}
	out := WeightedOrder(ids, w, 7, 0, 0)
	if len(out) != len(ids) {
		t.Fatalf("length %d", len(out))
	}
	seen := map[int]bool{}
	for _, id := range out {
		if seen[id] {
			t.Fatalf("duplicate %d", id)
		}
		seen[id] = true
	}
	for _, id := range ids {
		if !seen[id] {
			t.Fatalf("missing %d", id)
		}
	}
}

func TestWeightedOrderDeterministic(t *testing.T) {
	ids := []int{0, 1, 2, 3, 4, 5}
	w := map[int]float64{0: 5, 5: 2}
	a := WeightedOrder(ids, w, 9, 3, 1)
	b := WeightedOrder(ids, w, 9, 3, 1)
	c := WeightedOrder(ids, w, 9, 4, 1)
	same, diff := true, false
	for i := range a {
		if a[i] != b[i] {
			same = false
		}
		if a[i] != c[i] {
			diff = true
		}
	}
	if !same {
		t.Fatal("same stream differs")
	}
	if !diff {
		t.Fatal("different epochs identical")
	}
}

func TestWeightedOrderPrefersHighWeights(t *testing.T) {
	// Statistically: an id with 100x weight should land in the first half
	// far more often than chance.
	const trials = 200
	ids := make([]int, 20)
	for i := range ids {
		ids[i] = i
	}
	w := map[int]float64{7: 100}
	for i := range ids {
		if i != 7 {
			w[i] = 1
		}
	}
	firstHalf := 0
	for trial := 0; trial < trials; trial++ {
		out := WeightedOrder(ids, w, uint64(trial), 0, 0)
		for pos, id := range out {
			if id == 7 {
				if pos < 10 {
					firstHalf++
				}
				break
			}
		}
	}
	if firstHalf < 170 { // chance would be ~100
		t.Fatalf("high-weight id in first half only %d/%d times", firstHalf, trials)
	}
}

// TestSendPrioritySelectsTopWeights: with importance weights, PlanEpoch's
// exchange sends the top of the weighted ranking — the same ranking the
// epoch iterates in — and the Scheduler executes that plan.
func TestSendPrioritySelectsTopWeights(t *testing.T) {
	const n, m = 64, 4
	stores, _ := mkStores(t, n, m, 41, 0)
	err := mpi.Run(m, func(c *mpi.Comm) error {
		st := stores[c.Rank()]
		sched, err := NewScheduler(c, st, 0.25, n, 41)
		if err != nil {
			return err
		}
		// Give four local samples overwhelming weight; with Q=0.25 exactly
		// 4 slots exist, so those four must be the ones sent.
		ids := st.IDs()
		weights := map[int]float64{}
		want := map[int]bool{}
		for i, id := range ids {
			if i < 4 {
				weights[id] = 1e12
				want[id] = true
			} else {
				weights[id] = 1e-12
			}
		}
		plan, err := PlanEpoch(Partial(0.25), World{Rank: c.Rank(), Size: m, N: n}, 41, 0, ids, weights)
		if err != nil {
			return err
		}
		if plan.Exchange.Slots() != 4 {
			return fmt.Errorf("rank %d: %d slots, want 4", c.Rank(), plan.Exchange.Slots())
		}
		for i, id := range plan.Exchange.SendIDs {
			if !want[id] || plan.Order[i] != id {
				return fmt.Errorf("rank %d slot %d sends sample %d, not the ranking's entry %d", c.Rank(), i, id, plan.Order[i])
			}
		}
		if err := sched.Open(plan.Exchange, ExchangeTag(0)); err != nil {
			return err
		}
		if err := sched.Synchronize(); err != nil {
			return err
		}
		return sched.CleanLocalStorage()
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestWeightedOrderEmptyWeights(t *testing.T) {
	ids := []int{5, 6, 7}
	out := WeightedOrder(ids, map[int]float64{}, 1, 0, 0)
	if len(out) != 3 {
		t.Fatal("empty weights broke ordering")
	}
}
