// Package shuffle implements the paper's primary contribution: dataset
// partitioning, the balanced distributed sample exchange of Algorithm 1,
// and the epoch scheduler that overlaps the exchange with training
// (Section III). The three shuffling strategies are:
//
//   - Global (GS):  every worker draws its epoch's samples from a fresh
//     global permutation of the full dataset (PyTorch's
//     DistributedSampler default). Requires every sample to be reachable
//     by every worker (full dataset on the PFS or replicated locally).
//   - Local (LS):   workers keep their initial partition forever and only
//     re-shuffle it locally each epoch (Q = 0).
//   - PartialLocal: before each epoch, each worker exchanges a fraction Q
//     of its local samples with randomly chosen peers; the exchange is
//     balanced by construction (Q = 1 degenerates to a full redistribution,
//     Q = 0 to pure local shuffling).
//   - Corgi2: the hybrid offline/online scheme of Corgi² over the sharded
//     on-disk store (internal/store/shard): shards are reassigned across
//     workers every GroupEpochs epochs (offline chunk-level reshuffle, paid
//     as PFS refetches), and within each epoch samples are shuffled inside
//     cache-sized shard windows (online in-memory shuffle). No peer
//     exchange at all — the storage hierarchy is the shuffle medium.
package shuffle

import "fmt"

// Kind enumerates the shuffling strategies.
type Kind int

// Strategy kinds.
const (
	Global Kind = iota
	Local
	PartialLocal
	Corgi2
)

// Strategy selects a shuffling scheme; Q is only meaningful for
// PartialLocal, GroupEpochs only for Corgi2.
type Strategy struct {
	Kind Kind
	Q    float64
	// GroupEpochs is the Corgi2 epoch-group length: the offline chunk-level
	// reshuffle runs between groups, i.e. shard assignments change every
	// GroupEpochs epochs.
	GroupEpochs int
}

// GlobalShuffling returns the paper's baseline GS strategy.
func GlobalShuffling() Strategy { return Strategy{Kind: Global} }

// LocalShuffling returns the pure local strategy (Q = 0).
func LocalShuffling() Strategy { return Strategy{Kind: Local} }

// Partial returns the partial-local strategy with exchange fraction q.
func Partial(q float64) Strategy { return Strategy{Kind: PartialLocal, Q: q} }

// Corgi2Shuffling returns the hybrid offline/online strategy with shard
// reassignment every groupEpochs epochs.
func Corgi2Shuffling(groupEpochs int) Strategy {
	return Strategy{Kind: Corgi2, GroupEpochs: groupEpochs}
}

// EpochGroup returns the Corgi2 epoch group an epoch belongs to (0 for the
// other strategies, which never regroup).
func (s Strategy) EpochGroup(epoch int) int {
	if s.Kind != Corgi2 || s.GroupEpochs <= 0 {
		return 0
	}
	return epoch / s.GroupEpochs
}

// Validate reports configuration errors.
func (s Strategy) Validate() error {
	switch s.Kind {
	case Global, Local:
		return nil
	case PartialLocal:
		if s.Q < 0 || s.Q > 1 {
			return fmt.Errorf("shuffle: partial exchange fraction %v out of [0,1]", s.Q)
		}
		return nil
	case Corgi2:
		if s.GroupEpochs < 1 {
			return fmt.Errorf("shuffle: corgi2 group length %d must be at least 1 epoch", s.GroupEpochs)
		}
		return nil
	default:
		return fmt.Errorf("shuffle: unknown strategy kind %d", s.Kind)
	}
}

// String renders the strategy the way the paper labels its plots:
// "global", "local", "partial-0.1".
func (s Strategy) String() string {
	switch s.Kind {
	case Global:
		return "global"
	case Local:
		return "local"
	case PartialLocal:
		return fmt.Sprintf("partial-%g", s.Q)
	case Corgi2:
		return fmt.Sprintf("corgi2-g%d", s.GroupEpochs)
	default:
		return fmt.Sprintf("unknown(%d)", int(s.Kind))
	}
}

// StorageFactor returns the local storage requirement relative to N/M
// (Section III-A): LS needs 1×, PLS needs (1+Q)× because received samples
// land before transmitted ones are removed, GS needs M× (the full dataset).
func (s Strategy) StorageFactor(workers int) float64 {
	switch s.Kind {
	case Global:
		return float64(workers)
	case Local, Corgi2:
		return 1
	default:
		return 1 + s.Q
	}
}
