package shuffle

// planForVector is the planner under TestPlanVectors: one rank's epoch plan
// for a case, from PlanEpoch.
func planForVector(c planCase, rank, epoch int, localIDs []int) (vectorPlan, error) {
	w := World{Rank: rank, Size: c.m, N: c.n, Shards: c.shards, ShardSamples: c.shardSamples, Window: c.window}
	p, err := PlanEpoch(c.strategy, w, c.seed, epoch, localIDs, c.weights)
	return vectorPlan{
		Order: p.Order, SendIDs: p.Exchange.SendIDs, Dests: p.Exchange.Dests, Senders: p.Exchange.Senders,
		Windows: p.Corgi2.Windows, Bounds: p.Corgi2.Bounds, Refs: p.Corgi2.Order, Floor: p.Floor,
	}, err
}
