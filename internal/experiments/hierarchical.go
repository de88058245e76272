package experiments

import (
	"fmt"

	"plshuffle/internal/cluster"
	"plshuffle/internal/perfmodel"
	"plshuffle/internal/shuffle"
)

// HierarchicalExchangeTable evaluates the paper's Section V-F proposal —
// "an alternative solution is to use a hierarchical global exchange
// scheme that maps to the hierarchy of connection between computing
// nodes" — with the performance model: the two-level exchange aligns each
// slot's traffic into group-pairs (one group per node), so the congestion
// and synchronization terms scale with the node count rather than the
// worker count, recovering most of partial-0.1's degradation at 1,024 and
// 2,048 workers (Figure 9's pain point).
func HierarchicalExchangeTable(opts Options) (*Result, error) {
	flat, err := perfWorkload("imagenet-1k", "resnet50", 32, false)
	if err != nil {
		return nil, err
	}
	hier := flat
	hier.ExchangeGroupSize = 4 // ABCI: 4 workers (GPUs) per node
	mc := cluster.ABCI()

	tb := newTable("Hierarchical vs flat exchange: partial-0.1 epoch time on ABCI (ResNet50/ImageNet-1K)")
	tb.Header("workers", "local", "partial-0.1 flat", "partial-0.1 hierarchical", "flat/local", "hier/local")
	for _, m := range []int{128, 256, 512, 1024, 2048} {
		ls, err := perfmodel.EpochTime(mc, flat, m, shuffle.LocalShuffling())
		if err != nil {
			return nil, err
		}
		pf, err := perfmodel.EpochTime(mc, flat, m, shuffle.Partial(0.1))
		if err != nil {
			return nil, err
		}
		ph, err := perfmodel.EpochTime(mc, hier, m, shuffle.Partial(0.1))
		if err != nil {
			return nil, err
		}
		tb.Row(fmt.Sprintf("%d", m),
			formatSeconds(ls.Total()),
			formatSeconds(pf.Total()),
			formatSeconds(ph.Total()),
			fmt.Sprintf("%.2fx", pf.Total()/ls.Total()),
			fmt.Sprintf("%.2fx", ph.Total()/ls.Total()))
	}
	return &Result{
		ID:     "hier-exchange",
		Title:  "Section V-F extension: hierarchical two-level exchange",
		Tables: []*Table{tb},
		Notes: []string{
			"The hierarchical plan keeps the balanced single-source/single-destination property while collapsing per-slot inter-node traffic to M/groupSize aligned group-pairs; the trained planner and its GroupAlignment invariant (shuffle.PlanExchangeHierarchical) are at commit 7bcfa8e, and this table is the analytic model's.",
		},
	}, nil
}
