package analysis

import (
	"math"
	"testing"
	"testing/quick"
)

// quickCfg fixes the draw count so the property suite stays fast under
// -race while still sweeping thousands of random (n, m, q, b) shapes.
var quickCfg = &quick.Config{MaxCount: 2000}

// drawWorld maps arbitrary random words onto a valid world shape:
// n in [2, ~130k], m in [2, 65], b in [1, 256].
func drawWorld(a, b, c uint64) (n, m, batch int) {
	return int(2 + a%(1<<17)), int(2 + b%64), int(1 + c%256)
}

func drawQ(u uint64) float64 {
	return float64(u%100001) / 100000
}

// TestShufflingErrorMonotoneInQ: ε(n,m,q) is monotonically non-increasing
// in q — more exchange can only reduce the shuffling error. This is the
// property the controller's raise region relies on.
func TestShufflingErrorMonotoneInQ(t *testing.T) {
	prop := func(a, b uint64, u1, u2 uint64) bool {
		n, m, _ := drawWorld(a, b, 0)
		q1, q2 := drawQ(u1), drawQ(u2)
		if q1 > q2 {
			q1, q2 = q2, q1
		}
		lo, err1 := ShufflingError(n, m, q1)
		hi, err2 := ShufflingError(n, m, q2)
		if err1 != nil || err2 != nil {
			t.Logf("n=%d m=%d q1=%v q2=%v: %v %v", n, m, q1, q2, err1, err2)
			return false
		}
		if hi > lo {
			t.Logf("n=%d m=%d: eps(%v)=%v < eps(%v)=%v", n, m, q1, lo, q2, hi)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestShufflingErrorStepContinuity: ε depends on q only through the slot
// count floor(q·N/M), so it is constant — bitwise — between consecutive
// partition boundaries k/(N/M), and therefore continuous AT each boundary
// from the right. Two draws landing in the same partition cell must produce
// the identical float64.
func TestShufflingErrorStepContinuity(t *testing.T) {
	prop := func(a, b uint64, u1, u2 uint64) bool {
		n, m, _ := drawWorld(a, b, 0)
		q1, q2 := drawQ(u1), drawQ(u2)
		perWorker := float64(n) / float64(m)
		if math.Floor(q1*perWorker) != math.Floor(q2*perWorker) {
			return true // different cells — nothing to compare
		}
		e1, err1 := ShufflingError(n, m, q1)
		e2, err2 := ShufflingError(n, m, q2)
		if err1 != nil || err2 != nil {
			return false
		}
		if math.Float64bits(e1) != math.Float64bits(e2) {
			t.Logf("n=%d m=%d same cell k=%v: eps(%v)=%v != eps(%v)=%v",
				n, m, math.Floor(q1*perWorker), q1, e1, q2, e2)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestShufflingErrorBoundary pins the exact partition boundaries: stepping
// q from just below k/(N/M) to exactly the boundary may only keep ε equal
// or drop it (the step function is right-continuous and non-increasing),
// never raise it.
func TestShufflingErrorBoundary(t *testing.T) {
	prop := func(a, b, kk uint64) bool {
		n, m, _ := drawWorld(a, b, 0)
		perWorker := float64(n) / float64(m)
		k := 1 + float64(kk%uint64(math.Max(1, perWorker)))
		boundary := k / perWorker
		if boundary > 1 {
			return true
		}
		below := math.Nextafter(boundary, 0)
		eBelow, err1 := ShufflingError(n, m, below)
		eAt, err2 := ShufflingError(n, m, boundary)
		if err1 != nil || err2 != nil {
			return false
		}
		return eAt <= eBelow
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestDecisionRegionsExhaustiveExclusive: the independently-stated region
// predicates cover every signal exactly once, and ClassifyQ agrees with
// them. This is the safety net under the controller protocol: every epoch
// produces exactly one decision, whatever the stats say.
func TestDecisionRegionsExhaustiveExclusive(t *testing.T) {
	prop := func(a, b, c, uq, us, ur uint64) bool {
		n, m, batch := drawWorld(a, b, c)
		sig := QSignal{
			N: n, M: m, B: batch,
			Q:         drawQ(uq),
			Skew:      drawQ(us),
			CommRatio: 4 * drawQ(ur),
		}
		eps, err := ShufflingError(sig.N, sig.M, sig.Q)
		if err != nil {
			return false
		}
		safe := eps <= qSafety*DominationThreshold(sig.N, sig.M, sig.B)
		raiseP := !safe && sig.Skew > qSkewBound
		lowerP := !raiseP && sig.CommRatio > qLowerRatio
		holdP := !raiseP && !lowerP
		count := 0
		for _, p := range []bool{raiseP, lowerP, holdP} {
			if p {
				count++
			}
		}
		if count != 1 {
			t.Logf("%+v: %d regions claim the signal", sig, count)
			return false
		}
		region, err := ClassifyQ(sig)
		if err != nil {
			return false
		}
		want := QHold
		switch {
		case raiseP:
			want = QRaise
		case lowerP:
			want = QLower
		}
		if region != want {
			t.Logf("%+v: ClassifyQ=%v, predicates say %v", sig, region, want)
			return false
		}
		return true
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestDecideQStaysClamped: every decision stays inside
// [min(MinQ, q), max(MaxQ, q)] — a Q that starts outside the clamp range
// may drift back toward it but never further out — the reason is always one
// of the canonical labels, and the reason's direction matches the actual
// movement.
func TestDecideQStaysClamped(t *testing.T) {
	canonical := make(map[string]bool)
	for _, r := range QReasons() {
		canonical[r] = true
	}
	prop := func(a, b, c, uq, us, ur uint64) bool {
		n, m, batch := drawWorld(a, b, c)
		sig := QSignal{
			N: n, M: m, B: batch,
			Q:         drawQ(uq),
			Skew:      drawQ(us),
			CommRatio: 4 * drawQ(ur),
		}
		next, reason, err := DecideQ(sig)
		if err != nil {
			return false
		}
		if !canonical[reason] {
			t.Logf("%+v: non-canonical reason %q", sig, reason)
			return false
		}
		lo, hi := math.Min(MinQ, sig.Q), math.Max(MaxQ, sig.Q)
		if next < lo || next > hi {
			t.Logf("%+v: decision %v escaped [%v,%v]", sig, next, lo, hi)
			return false
		}
		switch reason {
		case ReasonRaiseSkew:
			return next > sig.Q
		case ReasonLowerHidden:
			return next < sig.Q
		default:
			return next == sig.Q
		}
	}
	if err := quick.Check(prop, quickCfg); err != nil {
		t.Error(err)
	}
}

// TestReasonCodesRoundTrip pins the wire mapping of the canonical reasons.
func TestReasonCodesRoundTrip(t *testing.T) {
	for i, r := range QReasons() {
		if got := ReasonCode(r); got != uint8(i) {
			t.Errorf("ReasonCode(%q) = %d, want %d", r, got, i)
		}
		if got := ReasonFromCode(uint8(i)); got != r {
			t.Errorf("ReasonFromCode(%d) = %q, want %q", i, got, r)
		}
	}
	if got := ReasonFromCode(200); got != ReasonHold {
		t.Errorf("out-of-range code decodes as %q, want %q", got, ReasonHold)
	}
	if got := ReasonCode("no-such-reason"); got != 0 {
		t.Errorf("unknown reason encodes as %d, want 0", got)
	}
}
