package analysis

// Closed-loop Q decision function (DESIGN.md §16). The controller round that
// retunes the exchange fraction per epoch lives in internal/train;
// everything that decides HOW Q moves is here, as a pure function over a
// per-epoch signal, so the raise/hold/lower geometry is unit- and
// property-testable without a world.
//
// The three regions are carved out of the signal space in a fixed order, so
// by construction they are mutually exclusive and exhaustive — the
// testing/quick suite in decision_test.go pins that, along with the
// monotonicity and step-function shape of ε(n,m,q) the regions rest on:
//
//	safe   := ε(n,m,q) ≤ qSafety·sqrt(b·m/n)   (Section IV-B non-domination)
//	Raise  := ¬safe ∧ Skew > qSkewBound
//	Lower  := ¬Raise ∧ CommRatio > qLowerRatio
//	Hold   := everything else
//
// The theory term gates the empirical one: when ε is already under the
// scaled non-domination threshold, locality provably cannot dominate the
// convergence bound and no amount of measured exposure skew justifies paying
// for more exchange. In the saturated regime (ε = 1 exactly in float64 for
// every practical size — the paper's conclusion), the gate is open and the
// deterministic skew measurement drives the raise decision.

import (
	"fmt"
	"math"
)

// QSignal is one epoch's decision input. Every field must be a
// deterministic function of (config, seed, epoch) on every rank — the
// controller broadcasts the decision, but the bitwise-determinism guarantee
// of two same-seed worlds also requires the INPUTS to agree across worlds,
// which rules out wall-clock timings (see DESIGN.md §16).
type QSignal struct {
	N int     // dataset size |N|
	M int     // workers |M|
	B int     // local batch size b
	Q float64 // exchange fraction currently in force

	// Skew is the per-class exposure skew: the total-variation distance
	// between the label distribution a rank trained on this epoch and the
	// global label distribution, in [0,1]. 0 = perfectly representative.
	Skew float64
	// CommRatio is modeled exchange cost over modeled compute cost for the
	// epoch (both from deterministic byte/flop counts at fixed reference
	// rates). Above 1, the exchange no longer hides behind compute.
	CommRatio float64
}

// The controller's policy (DESIGN.md §16.1): half the non-domination
// threshold as the safety margin, a 2% exposure skew bound, lower only when
// modeled exchange exceeds modeled compute, and 0.05 steps inside
// [MinQ, MaxQ].
const (
	qSafety     = 0.5  // fraction of the non-domination threshold deemed safe
	qSkewBound  = 0.02 // exposure skew above which ¬safe raises Q
	qLowerRatio = 1.0  // comm/compute ratio above which Q is lowered
	qStep       = 0.05 // additive Q step per decision

	// MinQ and MaxQ clamp every decision and the starting fraction.
	MinQ, MaxQ = 0.05, 0.5
)

// QRegion names the decision region a signal falls into.
type QRegion int

const (
	QHold QRegion = iota
	QRaise
	QLower
)

func (r QRegion) String() string {
	switch r {
	case QRaise:
		return "raise"
	case QLower:
		return "lower"
	default:
		return "hold"
	}
}

// Decision reasons, the canonical label set of the
// pls_controller_decisions_total telemetry counter; ReasonCode gives each its
// wire code in the Q agreement broadcast.
const (
	ReasonHold        = "hold"
	ReasonRaiseSkew   = "raise-skew"
	ReasonRaiseClamp  = "raise-clamp"
	ReasonLowerHidden = "lower-hidden"
	ReasonLowerClamp  = "lower-clamp"
)

// qReasons orders the canonical reasons by wire code.
var qReasons = [...]string{ReasonHold, ReasonRaiseSkew, ReasonRaiseClamp, ReasonLowerHidden, ReasonLowerClamp}

// QReasons returns the canonical decision-reason labels (telemetry
// pre-registers one counter per label).
func QReasons() []string {
	out := make([]string, len(qReasons))
	copy(out, qReasons[:])
	return out
}

// ReasonCode maps a canonical reason to its fixed wire code (unknown
// reasons map to ReasonHold's code, keeping the wire payload total).
func ReasonCode(reason string) uint8 {
	for i, r := range qReasons {
		if r == reason {
			return uint8(i)
		}
	}
	return 0
}

// ReasonFromCode is the inverse of ReasonCode; out-of-range codes decode as
// ReasonHold.
func ReasonFromCode(code uint8) string {
	if int(code) < len(qReasons) {
		return qReasons[code]
	}
	return ReasonHold
}

func checkSignal(sig QSignal) error {
	if sig.B <= 0 {
		return fmt.Errorf("analysis: QSignal: batch size %d must be positive", sig.B)
	}
	if sig.Skew < 0 || sig.Skew > 1 {
		return fmt.Errorf("analysis: QSignal: skew %v out of [0,1]", sig.Skew)
	}
	if sig.CommRatio < 0 {
		return fmt.Errorf("analysis: QSignal: comm ratio %v must be non-negative", sig.CommRatio)
	}
	return nil
}

// ClassifyQ places a signal into exactly one decision region. It errors on
// invalid world shapes ((n, m, q) outside ShufflingError's domain) or signal
// values.
func ClassifyQ(sig QSignal) (QRegion, error) {
	if err := checkSignal(sig); err != nil {
		return QHold, err
	}
	eps, err := ShufflingError(sig.N, sig.M, sig.Q)
	if err != nil {
		return QHold, err
	}
	safe := eps <= qSafety*DominationThreshold(sig.N, sig.M, sig.B)
	switch {
	case !safe && sig.Skew > qSkewBound:
		return QRaise, nil
	case sig.CommRatio > qLowerRatio:
		return QLower, nil
	default:
		return QHold, nil
	}
}

// DecideQ maps a signal to the next epoch's exchange fraction and the
// reason label for the move. Raises and lowers step by 0.05, clamped into
// [MinQ, MaxQ]; a step pinned at its clamp reports the -clamp variant of
// its reason. Hold leaves Q untouched.
func DecideQ(sig QSignal) (float64, string, error) {
	region, err := ClassifyQ(sig)
	if err != nil {
		return sig.Q, ReasonHold, err
	}
	switch region {
	case QRaise:
		next := min(snapQ(sig.Q+qStep), MaxQ)
		if next <= sig.Q {
			return sig.Q, ReasonRaiseClamp, nil
		}
		return next, ReasonRaiseSkew, nil
	case QLower:
		next := max(snapQ(sig.Q-qStep), MinQ)
		if next >= sig.Q {
			return sig.Q, ReasonLowerClamp, nil
		}
		return next, ReasonLowerHidden, nil
	default:
		return sig.Q, ReasonHold, nil
	}
}

// snapQ rounds a stepped fraction to a 1e-6 grid before clamping — still a
// pure function, but repeated binary-inexact steps (0.2 + 5×0.05) land on
// 0.45, not 0.44999999999999996, so trajectories print and compare cleanly.
func snapQ(q float64) float64 {
	return math.Round(q*1e6) / 1e6
}
