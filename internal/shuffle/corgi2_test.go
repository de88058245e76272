package shuffle

import (
	"reflect"
	"testing"
)

func TestCorgi2AssignBalancedAndComplete(t *testing.T) {
	const shards, workers = 22, 4
	assign, err := Corgi2Assign(shards, workers, 7, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[int]bool)
	for r, s := range assign {
		if len(s) != shards/workers && len(s) != shards/workers+1 {
			t.Fatalf("rank %d holds %d shards, want %d or %d", r, len(s), shards/workers, shards/workers+1)
		}
		for _, id := range s {
			if seen[id] {
				t.Fatalf("shard %d assigned twice", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != shards {
		t.Fatalf("%d shards assigned, want %d", len(seen), shards)
	}

	// Deterministic per group, different across groups.
	again, _ := Corgi2Assign(shards, workers, 7, 0)
	if !reflect.DeepEqual(assign, again) {
		t.Fatal("same (seed, group) produced different assignments")
	}
	other, _ := Corgi2Assign(shards, workers, 7, 1)
	if reflect.DeepEqual(assign, other) {
		t.Fatal("group 1 reproduced group 0's assignment (offline reshuffle missing)")
	}

	if _, err := Corgi2Assign(3, 4, 7, 0); err == nil {
		t.Fatal("more workers than shards accepted")
	}
}

func TestCorgi2EpochPlanCoversAssignment(t *testing.T) {
	assigned := []int{3, 8, 1, 5, 9}
	counts := func(sh int) int { return 10 + sh } // uneven shard sizes
	plan := Corgi2EpochPlan(assigned, counts, 2, 7, 2, 1)

	// Windows partition the assignment into chunks of at most 2 shards.
	var flat []int
	for _, w := range plan.Windows {
		if len(w) == 0 || len(w) > 2 {
			t.Fatalf("window size %d out of [1,2]", len(w))
		}
		flat = append(flat, w...)
	}
	if len(flat) != len(assigned) {
		t.Fatalf("windows cover %d shards, want %d", len(flat), len(assigned))
	}

	// Bounds bracket the order; every sample of every assigned shard
	// appears exactly once, inside its window's bounds.
	if plan.Bounds[0] != 0 || plan.Bounds[len(plan.Bounds)-1] != len(plan.Order) {
		t.Fatalf("bounds %v do not bracket order of %d", plan.Bounds, len(plan.Order))
	}
	want := 0
	for _, sh := range assigned {
		want += counts(sh)
	}
	if len(plan.Order) != want {
		t.Fatalf("order has %d refs, want %d", len(plan.Order), want)
	}
	seen := make(map[[2]int]bool)
	for w, win := range plan.Windows {
		inWin := make(map[int]bool)
		for _, sh := range win {
			inWin[sh] = true
		}
		for _, ref := range plan.Order[plan.Bounds[w]:plan.Bounds[w+1]] {
			if !inWin[ref.Shard] {
				t.Fatalf("window %d contains ref to shard %d not in %v", w, ref.Shard, win)
			}
			k := [2]int{ref.Shard, ref.Index}
			if seen[k] {
				t.Fatalf("ref %v appears twice", k)
			}
			seen[k] = true
		}
	}

	// Pure function of its arguments; epoch and rank both matter.
	same := Corgi2EpochPlan(assigned, counts, 2, 7, 2, 1)
	if !reflect.DeepEqual(plan, same) {
		t.Fatal("same arguments produced different plans")
	}
	if reflect.DeepEqual(plan.Order, Corgi2EpochPlan(assigned, counts, 2, 7, 3, 1).Order) {
		t.Fatal("different epochs share an order")
	}
	if reflect.DeepEqual(plan.Order, Corgi2EpochPlan(assigned, counts, 2, 7, 2, 0).Order) {
		t.Fatal("different ranks share an order")
	}

	// window <= 0 means one window over everything.
	all := Corgi2EpochPlan(assigned, counts, 0, 7, 2, 1)
	if len(all.Windows) != 1 || len(all.Windows[0]) != len(assigned) {
		t.Fatalf("window=0 built %d windows", len(all.Windows))
	}
}

func TestCorgi2StrategySurface(t *testing.T) {
	s := Corgi2Shuffling(3)
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
	if got := s.String(); got != "corgi2-g3" {
		t.Fatalf("String() = %q", got)
	}
	if s.StorageFactor(16) != 1 {
		t.Fatal("corgi2 stores N/M locally at most")
	}
	for _, e := range []int{0, 1, 2, 3, 4, 5} {
		if got, want := s.EpochGroup(e), e/3; got != want {
			t.Fatalf("EpochGroup(%d) = %d, want %d", e, got, want)
		}
	}
	if err := Corgi2Shuffling(0).Validate(); err == nil {
		t.Fatal("GroupEpochs=0 accepted")
	}
}
