package train

// Mid-run rank join (DESIGN.md §15). The transport's rendezvous root keeps
// answering hellos after bootstrap; a joiner that rendezvoused sits parked
// with a rank slot but no group membership until the trainers admit it at
// an epoch boundary:
//
//	members (admitJoiners)               joiner (JoinRank)
//	────────────────────────             ─────────────────────────
//	root drains PendingJoins             blocks on Irecv(admitTag)
//	Bcast join list over group
//	AdmitPeer each joiner
//	EnterGeneration(next),
//	Grow(newSize, newGroup)
//	root sends admission ──────────────▶ Grow(newSize, newGroup),
//	                                     EnterGeneration(the members')
//	Barrier over grown group ◀─────────▶ Barrier
//	resync (root's weights and Q) ◀────▶ resync
//	Rebalance stored samples ◀─────────▶ Rebalance (receives its share)
//	train epoch e                        train() from startEpoch = e
//
// The rebalance is one shuffle.Scheduler window on RebalanceTag(generation,
// e), committed or abandoned on every member alike by one mpi.Agree: a
// member's death inside it reaches every other member and the joiner as a
// typed peer error with the stores untouched (DESIGN.md §15.4 says what each
// failure policy does next).
//
// The admission message is point-to-point on a per-joiner tag, so a joiner
// can never confuse another joiner's admission (or a stale epoch's) with
// its own. After the join every member — joiner included — derives the same
// iteration counts, exchange plans, and collective schedule from the grown
// group, and the rebalance restores the balanced-disjoint-store invariant
// those derivations assume.

import (
	"encoding/json"
	"fmt"
	"slices"

	"plshuffle/internal/mpi"
	"plshuffle/internal/shuffle"
	"plshuffle/internal/store"
	"plshuffle/internal/transport"
)

// admitMsg is what the group root sends a joiner: the grown world shape,
// the generation to align the collective sequence to, and the epoch the
// grown group trains next. short propagates the members' shortData flag so
// the joiner runs the identical per-epoch collectives.
type admitMsg struct {
	size       int
	generation int
	epoch      int
	short      bool
	group      []int
}

// encodeAdmit spells the message as an []int payload, which the transport
// codec already carries: {size, generation, epoch, short, group...}.
func encodeAdmit(m admitMsg) []int {
	short := 0
	if m.short {
		short = 1
	}
	return append([]int{m.size, m.generation, m.epoch, short}, m.group...)
}

func decodeAdmit(p []int) (admitMsg, error) {
	if len(p) < 5 {
		return admitMsg{}, fmt.Errorf("train: admission message truncated (%d ints)", len(p))
	}
	return admitMsg{size: p[0], generation: p[1], epoch: p[2], short: p[3] != 0, group: p[4:]}, nil
}

// admitJoiners runs on every member at the top of an elastic epoch: the
// group root drains the transport's pending join requests and broadcasts
// them; if any arrived, every member applies the grow in lock-step. Joiner
// traffic (the broadcast, the grow, the weight sync, the rebalance) all
// happens before the epoch's first exchange or gradient collective.
func (w *worker) admitJoiners(epoch int) error {
	return w.comm.Guard(func() error {
		root := w.comm.GroupRanks()[0]
		var blob []byte
		if w.comm.Rank() == root {
			if joins := w.comm.PendingJoins(); len(joins) > 0 {
				b, err := json.Marshal(joins)
				if err != nil {
					return err
				}
				blob = b
			}
		}
		n := []int{len(blob)}
		mpi.Bcast(w.comm, n, root)
		if n[0] == 0 {
			return nil
		}
		if w.comm.Rank() != root {
			blob = make([]byte, n[0])
		}
		mpi.Bcast(w.comm, blob, root)
		var joins []transport.JoinRequest
		if err := json.Unmarshal(blob, &joins); err != nil {
			return err
		}
		return w.applyJoins(epoch, joins)
	})
}

// applyJoins grows the collective group over the joiners and brings them to
// the members' state. Every member executes it with the identical join list
// (the root's broadcast).
func (w *worker) applyJoins(epoch int, joins []transport.JoinRequest) error {
	group := w.comm.GroupRanks()
	newSize := w.comm.Size()
	for _, jr := range joins {
		// Inproc worlds are wired at creation and note joins with an empty
		// address; the transport-level admission is then a no-op.
		if jr.Addr != "" {
			if err := w.comm.AdmitPeer(jr.Rank, jr.Addr); err != nil {
				return err
			}
		}
		if i, found := slices.BinarySearch(group, jr.Rank); !found {
			group = slices.Insert(group, i, jr.Rank)
		}
		if jr.Rank+1 > newSize {
			newSize = jr.Rank + 1
		}
	}
	if err := w.comm.EnterGeneration(w.comm.Generation() + 1); err != nil {
		return err
	}
	if err := w.comm.Grow(newSize, group); err != nil {
		return err
	}
	root := group[0]
	if w.comm.Rank() == root {
		for _, jr := range joins {
			w.comm.Isend(jr.Rank, admitTag(jr.Rank), encodeAdmit(admitMsg{
				size: newSize, generation: w.comm.Generation(), epoch: epoch,
				short: w.shortData, group: group,
			}))
		}
	}
	// First collective over the grown group; the joiners' Grow + Barrier
	// rendezvous with it.
	w.comm.Barrier()
	if err := w.resync(epoch); err != nil {
		return err
	}
	return w.rebalance(epoch)
}

// testRebalanced runs on every member whose rebalance committed, with the
// store it dealt; tests read the group's cover from it.
var testRebalanced = func(c *mpi.Comm, st *store.Local) {}

// rebalance deals the re-formed group's stores — grown or shrunk — a
// balanced partition.
func (w *worker) rebalance(epoch int) error {
	if w.local == nil {
		return nil
	}
	testAgreeHook(w.comm, "rebalance", epoch)
	if _, err := shuffle.Rebalance(w.comm, w.local, w.cfg.Seed, epoch); err != nil {
		return err
	}
	testRebalanced(w.comm, w.local)
	return nil
}

// JoinRank enters an already-running elastic world as a fresh rank: it
// blocks until the group root admits this rank at an epoch boundary, adopts
// the broadcast world shape, receives the current weights, takes its share
// of the stored samples through the rebalance, and trains the remaining
// epochs as a full member. cfg must be the configuration the running world
// was launched with; Workers (if non-zero) must equal this communicator's
// world size, which is the post-join rank name space.
func JoinRank(c *mpi.Comm, cfg Config) (*RankResult, error) {
	cfg, err := resolveConfig(c, cfg)
	if err != nil {
		return nil, err
	}
	adm, err := waitAdmission(c)
	if err != nil {
		return nil, err
	}
	if err := c.Grow(adm.size, adm.group); err != nil {
		return nil, err
	}
	w, err := newWorker(c, cfg, nil, &adm)
	if err != nil {
		return nil, err
	}
	if w.tier != nil {
		defer w.tier.Close()
	}
	// Rendezvous with the members' post-grow Barrier, then adopt the current
	// replica state and take this rank's share of the samples. A death meanwhile
	// abandons the admission on every member; the joiner does not re-enter.
	err = c.Guard(func() error {
		c.Barrier()
		if err := w.resync(adm.epoch); err != nil {
			return err
		}
		return w.rebalance(adm.epoch)
	})
	if pe, ok := mpi.PeerErrorFrom(err); ok {
		err = fmt.Errorf("train: JoinRank: admission before epoch %d in generation %d abandoned: member rank %d died; not re-entering: %w",
			adm.epoch, adm.generation, pe.Rank, err)
	}
	if err != nil {
		return nil, err
	}
	return w.run()
}

// waitAdmission blocks until the admission message for this rank arrives.
// Peer failures recorded while waiting (a member of the world this rank is
// joining may die, or the whole run may finish and tear down) do not match
// the receive; they accumulate until either the admission arrives or every
// other rank is known dead — the joiner's only way to learn the world is
// gone.
func waitAdmission(c *mpi.Comm) (admitMsg, error) {
	known := make(map[int]bool)
	for {
		req := c.Irecv(mpi.AnySource, admitTag(c.Rank()))
		payload, _, err := c.WaitPeerAware(req, func(r int) bool { return known[r] })
		if err == nil {
			p, ok := payload.([]int)
			if !ok {
				return admitMsg{}, fmt.Errorf("train: JoinRank: admission payload is %T, want []int", payload)
			}
			return decodeAdmit(p)
		}
		pe, isPeer := mpi.PeerErrorFrom(err)
		if !isPeer {
			return admitMsg{}, err
		}
		known[pe.Rank] = true
		if len(known) >= c.Size()-1 {
			return admitMsg{}, fmt.Errorf("train: JoinRank: every peer failed before admission (world gone or run complete): %w", err)
		}
	}
}
