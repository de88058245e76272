// Package control implements the closed-loop shuffle controller
// (DESIGN.md §16): a per-epoch state machine that retunes the exchange
// fraction Q online, raising it when the non-domination condition
// ε ≤ sqrt(b·|M|/|N|) is at risk or the per-class exposure skews past a
// bound, and lowering it when the modeled exchange cost stops hiding behind
// compute. The decision geometry itself is analysis.DecideQ, a pure
// function; this package owns the trajectory — the current Q, the world
// shape it was decided for, and the reduction of per-rank observations into
// one signal.
//
// Determinism contract: Decide consumes only deterministic observations
// (label-histogram skew, modeled byte/flop cost ratios — never wall-clock),
// reduces them with order-independent maxima, and steps a pure function, so
// the full Q trajectory is a function of (config, seed). Two same-seed
// worlds replay it bitwise; one world broadcasts each decision so every
// rank applies the identical float64 before the same Scheduling.
package control

import (
	"fmt"

	"plshuffle/internal/analysis"
)

// Config fixes the world shape and policy a controller decides under.
type Config struct {
	N int // dataset size |N|
	M int // live workers |M| (update via SetWorld on shrink/grow)
	B int // local batch size b
	// Policy parameterizes the decision regions; zero value means
	// analysis.DefaultQPolicy with the given clamps (if any).
	Policy analysis.QPolicy
}

// Obs is one rank's deterministic observation of an epoch.
type Obs struct {
	// Skew is the total-variation distance between the label distribution
	// the rank trained on and the global label distribution, in [0,1].
	Skew float64
	// CommRatio is the rank's modeled exchange-over-compute cost ratio.
	CommRatio float64
}

// Decision is the outcome of one epoch's control step — the value the root
// broadcasts.
type Decision struct {
	Epoch  int
	Q      float64 // exchange fraction for the NEXT epoch
	Reason string  // canonical analysis reason label
}

// Controller tracks the Q trajectory of one training run. It is not
// goroutine-safe: the training loop owns it and calls it between epochs.
type Controller struct {
	cfg Config
	q   float64
}

// New builds a controller starting from q0, clamped into the policy's
// [MinQ, MaxQ] so the first epoch already respects the operator's bounds.
func New(cfg Config, q0 float64) (*Controller, error) {
	if err := cfg.Policy.Validate(); err != nil {
		return nil, err
	}
	if cfg.N <= 0 || cfg.M <= 1 || cfg.B <= 0 {
		return nil, fmt.Errorf("control: world shape n=%d m=%d b=%d (need n>0, m>1, b>0)", cfg.N, cfg.M, cfg.B)
	}
	if q0 < 0 || q0 > 1 {
		return nil, fmt.Errorf("control: initial fraction %v out of [0,1]", q0)
	}
	if q0 < cfg.Policy.MinQ {
		q0 = cfg.Policy.MinQ
	}
	if q0 > cfg.Policy.MaxQ {
		q0 = cfg.Policy.MaxQ
	}
	return &Controller{cfg: cfg, q: q0}, nil
}

// Q returns the exchange fraction currently in force.
func (c *Controller) Q() float64 { return c.q }

// Adopt overwrites the trajectory position with a broadcast or restored
// value: a non-root rank applying the root's decision, a survivor applying
// the new root's Q after a shrink, a joiner or resumed rank syncing to the
// running world.
func (c *Controller) Adopt(q float64) { c.q = q }

// SetWorld updates the live worker count after a membership change; the
// non-domination threshold sqrt(b·m/n) moves with it.
func (c *Controller) SetWorld(m int) { c.cfg.M = m }

// Decide reduces the gathered per-rank observations into one signal and
// steps the decision function. The reduction is the worst rank on each
// axis: the most skewed rank justifies more exchange, and the exchange must
// hide behind compute on EVERY rank, so the maximum ratio governs. Maxima
// are order-independent, keeping the decision invariant to gather order.
func (c *Controller) Decide(epoch int, obs []Obs) (Decision, error) {
	if len(obs) == 0 {
		return Decision{}, fmt.Errorf("control: epoch %d: no observations", epoch)
	}
	var skew, comm float64
	for _, o := range obs {
		if o.Skew > skew {
			skew = o.Skew
		}
		if o.CommRatio > comm {
			comm = o.CommRatio
		}
	}
	next, reason, err := analysis.DecideQ(analysis.QSignal{
		N: c.cfg.N, M: c.cfg.M, B: c.cfg.B,
		Q: c.q, Skew: skew, CommRatio: comm,
	}, c.cfg.Policy)
	if err != nil {
		return Decision{}, fmt.Errorf("control: epoch %d: %w", epoch, err)
	}
	c.q = next
	return Decision{Epoch: epoch, Q: next, Reason: reason}, nil
}
