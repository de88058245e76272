package train

// Point-to-point user tags (DESIGN.md §7). Agreement at the epoch boundary
// rides the mpi collectives and mpi.Agree, whose internal tags are negative and
// salted with the membership generation (mpi.Comm.Generation). Only three kinds
// of traffic carry a user tag, and with epoch < maxEpochs (Config.Validate)
// and rank < 1<<22 their ranges are disjoint:
//
//	[0, 1<<20)                      shuffle.ExchangeTag(epoch)
//	[1<<22, 1<<23)                  admitTag(rank)
//	[(g+1)<<24 + 1<<23, … + 1<<20)  shuffle.RebalanceTag(g, epoch), generation g ≥ 0
//
// The rebalance carries the generation: a retry re-enters its epoch, and
// must not match frames the failed attempt left. TestTagSpacesDisjoint walks
// the edges of every range.

// maxEpochs bounds Config.Epochs: the exchange tag is the raw epoch, and at
// 1<<22 it would alias admitTag.
const maxEpochs = 1 << 20

// admitTag carries a joiner's admission, keyed by the JOINER's world rank
// (not an epoch: a joiner listens before it knows the epoch). It cannot be a
// collective — the joiner is outside every group until it is admitted.
func admitTag(rank int) int { return 1<<22 + rank }
