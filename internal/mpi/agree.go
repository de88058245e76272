package mpi

// Fault-tolerant agreement (DESIGN.md §10, "Epoch boundary"): ULFM's
// MPIX_Comm_agree as the early-deciding flooding consensus for a perfect
// failure detector (Bland et al., IJHPCA 2013; Herault et al., SC 2015). A
// round sends this member's state (running minimum, members it counts dead)
// to every member still talking and waits for every member it counts live; a
// sender seen dying, a new name in a state, or a sender already in a later
// generation is a new death. A round without one decides, a received decision
// is adopted, and either way one more round goes out so nobody waits; a
// member others count dead does the same and fails. Deciders in one round
// heard the same live members twice, so they agree.

import (
	"errors"
	"fmt"
	"slices"

	"plshuffle/internal/transport"
)

// Agree returns, on every surviving member of the collective group, the same
// element-wise minimum of the live members' vals (a flag is a one-element
// vector: AND is the minimum over {0, 1}) and the same sorted dead set, the
// members dead before the call included. Every member calls it in the same
// collective order with vals of one length; deaths do not unwind it. A member
// in the agreed dead set, or whose communicator closes, gets an error.
func Agree(c *Comm, vals []int) (agreed, dead []int, err error) {
	seq := c.nextSeq()
	gen := seq >> 32
	group := c.GroupRanks()
	n := len(vals)
	acc := append([]int(nil), vals...)
	down := make(map[int]bool) // group members this rank counts dead
	for _, r := range group {
		if c.failures.get(r) != nil {
			down[r] = true
		}
	}
	quiet := make(map[int]bool) // peers that sent their last message or died
	var decision []int          // the agreed minimum followed by the dead set
	for round := 0; ; round++ {
		tag := collTag(seq, round)
		last := decision != nil || down[c.rank]
		msg := []int{0}
		if last {
			msg[0] = 1
		}
		if decision != nil {
			msg = append(msg, decision...)
		} else {
			msg = append(append(msg, acc...), sortedKeys(down)...)
		}
		for _, r := range group {
			if r != c.rank && !quiet[r] {
				if _, err := c.conn.Send(r, tag, msg); err != nil {
					c.sendFailed(err) // a dead destination is a value; anything else unwinds
				}
			}
		}
		if decision == nil && down[c.rank] {
			return nil, nil, fmt.Errorf("mpi: rank %d: Agree: the group counts this rank dead", c.rank)
		}
		changed := false
		var adopt []int
		for _, r := range group {
			if r == c.rank || quiet[r] || down[r] {
				continue
			}
			payload, _, werr := c.waitWatching(c.irecvInternal(r, tag), func() error {
				if pe := c.failures.get(r); pe != nil {
					return pe
				}
				if c.failures.generation(r) > gen {
					return errLeftGeneration
				}
				return nil
			})
			if werr == ErrCommClosed {
				return nil, nil, fmt.Errorf("mpi: rank %d: Agree: %w", c.rank, werr)
			}
			if werr != nil {
				down[r], quiet[r], changed = true, true, true
				continue
			}
			m := payload.([]int)
			if last {
				continue // the final round only drains
			}
			named := m[1+n:]
			if m[0] == 1 {
				quiet[r] = true
				if !slices.Contains(named, r) {
					if adopt == nil {
						adopt = m[1:]
					}
					continue
				}
			}
			reduceInto(acc, m[1:1+n], OpMin)
			for _, d := range named {
				if !down[d] {
					down[d], changed = true, true
				}
			}
		}
		if last {
			break
		}
		if adopt != nil {
			decision = adopt
		} else if !changed {
			decision = append(acc, sortedKeys(down)...)
		}
	}
	agreed, dead = decision[:n:n], decision[n:]
	if slices.Contains(dead, c.rank) {
		return nil, nil, fmt.Errorf("mpi: rank %d: Agree: the group agreed this rank is dead", c.rank)
	}
	return agreed, dead, nil
}

// FirstDead names an agreed dead set by the first of its members this rank
// saw die — the rest died of it, or only left for a later generation — with
// the failure the transport recorded, or by dead[0] when this rank saw none
// of them die itself.
func FirstDead(c *Comm, dead []int) *transport.PeerError {
	for _, r := range c.FailedPeers() {
		if slices.Contains(dead, r) {
			return c.PeerFailure(r)
		}
	}
	return &transport.PeerError{Rank: dead[0], Phase: "agree"}
}

// errLeftGeneration stops a wait on a member that re-formed without us.
var errLeftGeneration = errors.New("mpi: peer entered a later generation")

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for r := range set {
		out = append(out, r)
	}
	slices.Sort(out)
	return out
}
