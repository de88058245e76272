package shuffle

// The exchange-balance ablation (DESIGN.md §6): the naive planner Algorithm
// 1 is compared against, kept beside the benchmark and tests that call it.

import (
	"fmt"
	"testing"

	"plshuffle/internal/rng"
)

// PlanExchangeUnbalanced is the ablation baseline (DESIGN.md §6): each
// worker draws destinations uniformly at random from its own private
// stream, as a naive implementation (and the prior systems the paper cites,
// whose exchange split "is itself random") would. Send counts remain k per
// worker but receive counts become multinomial — workers can no longer post
// a fixed number of receives, so the scheme needs an extra metadata round
// and produces unbalanced storage and communication. CountImbalance
// quantifies the skew without running messages.
func PlanExchangeUnbalanced(rank, size int, localIDs []int, q float64, totalN int, seed uint64, epoch int) (ExchangePlan, error) {
	if rank < 0 || rank >= size {
		return ExchangePlan{}, fmt.Errorf("shuffle: PlanExchangeUnbalanced: rank %d out of [0,%d)", rank, size)
	}
	k := Slots(q, totalN, size)
	if k > len(localIDs) {
		return ExchangePlan{}, fmt.Errorf("shuffle: PlanExchangeUnbalanced: %d slots but only %d local samples", k, len(localIDs))
	}
	plan := ExchangePlan{Epoch: epoch, Q: q, SendIDs: make([]int, k), Dests: make([]int, k)}
	if k == 0 {
		return plan, nil
	}
	r := rng.NewStream(seed, saltSend, uint64(epoch), uint64(rank))
	p := r.Perm(len(localIDs))
	for i := 0; i < k; i++ {
		plan.SendIDs[i] = localIDs[p[i]]
		plan.Dests[i] = r.Intn(size)
	}
	return plan, nil
}

// CountImbalance returns, for a set of per-rank plans, each rank's receive
// count. For balanced plans every entry equals the slot count; for the
// unbalanced ablation the spread demonstrates why Algorithm 1 uses shared
// permutations.
func CountImbalance(plans []ExchangePlan, size int) []int {
	counts := make([]int, size)
	for _, p := range plans {
		for _, d := range p.Dests {
			counts[d]++
		}
	}
	return counts
}

// BenchmarkAblationExchangeBalance compares Algorithm 1's shared-seed
// per-slot rank permutations against naive uniform-random destinations:
// the balanced plan has zero receive-count spread, the naive one does not.
func BenchmarkAblationExchangeBalance(b *testing.B) {
	const n, m, q = 16384, 32, 0.3
	parts, err := Partition(n, m, 1)
	if err != nil {
		b.Fatal(err)
	}
	var maxSpreadNaive int
	for i := 0; i < b.N; i++ {
		balanced := make([]ExchangePlan, m)
		naive := make([]ExchangePlan, m)
		for r := 0; r < m; r++ {
			balanced[r], err = PlanExchange(r, m, parts[r], q, n, 1, i)
			if err != nil {
				b.Fatal(err)
			}
			naive[r], err = PlanExchangeUnbalanced(r, m, parts[r], q, n, 1, i)
			if err != nil {
				b.Fatal(err)
			}
		}
		k := Slots(q, n, m)
		for _, c := range CountImbalance(balanced, m) {
			if c != k {
				b.Fatalf("balanced plan imbalanced: %d != %d", c, k)
			}
		}
		spread := 0
		for _, c := range CountImbalance(naive, m) {
			if d := c - k; d > spread {
				spread = d
			} else if d := k - c; d > spread {
				spread = d
			}
		}
		if spread > maxSpreadNaive {
			maxSpreadNaive = spread
		}
	}
	b.ReportMetric(float64(maxSpreadNaive), "naive-max-receive-spread")
	b.ReportMetric(0, "balanced-receive-spread")
}
