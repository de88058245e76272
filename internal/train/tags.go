package train

// Point-to-point user tags (DESIGN.md §7). Agreement at the epoch boundary
// rides the mpi collectives, whose internal tags are negative and salted with
// the membership generation by SetCollSeq. Only four kinds of traffic carry a
// user tag, and with epoch < maxEpochs (Config.Validate) and rank < 1<<22
// their ranges are disjoint:
//
//	[0, 1<<20)                      shuffle.ExchangeTag(epoch)
//	[1<<22, 1<<23)                  admitTag(rank)
//	[(g+1)<<24, (g+1)<<24 + 1<<20)  ckptTag(g, nextEpoch), generation g ≥ 0
//	[(g+1)<<24 + 1<<23, … + 1<<20)  shuffle.RebalanceTag(g, epoch)
//
// The two windows a failed attempt can leave frames in and a retry re-enters
// at the same epoch — the checkpoint commit round and the post-join rebalance
// — carry the generation, which every re-formation bumps.
//
// TestTagSpacesDisjoint walks the edges of every range.

// maxEpochs bounds Config.Epochs: the exchange tag is the raw epoch, and at
// 1<<22 it would alias admitTag.
const maxEpochs = 1 << 20

// admitTag carries a joiner's admission, keyed by the JOINER's world rank
// (not an epoch: a joiner listens before it knows the epoch). It cannot be a
// collective — the joiner is outside every group until it is admitted.
func admitTag(rank int) int { return 1<<22 + rank }

// ckptTag carries the checkpoint CRC reports of saveCheckpoint's commit
// round. The round stays point-to-point on its own tag because that frame —
// between a rank's WriteTemp and its Commit — is the seam the crash tests
// kill a rank on. The membership generation salts the tag: a snapshot
// re-taken after a mid-checkpoint death (the group shrank, the replica state
// was re-synchronized) must not gather a stale report a rank sent for the
// same epoch boundary before the failure.
func ckptTag(generation, nextEpoch int) int { return (generation+1)<<24 + nextEpoch }
