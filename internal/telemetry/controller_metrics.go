package telemetry

// ControllerMetrics is the telemetry bundle of the closed-loop shuffle
// controller (DESIGN.md §16): the exchange fraction currently in force and
// one decision counter per canonical reason label. Decisions happen once
// per epoch, but the bundle keeps the registry's allocation-free contract
// anyway — all labels are formatted at Register time, and Note only touches
// atomics.
type ControllerMetrics struct {
	// Q shows the fraction the next epoch plans with — the
	// pls_controller_q gauge.
	Q Gauge

	reasons   []string
	decisions []Counter
	index     map[string]int
}

// NewControllerMetrics builds the bundle for the given canonical reason set
// (analysis.QReasons plus any runtime-only labels like "schedule").
func NewControllerMetrics(reasons []string) *ControllerMetrics {
	m := &ControllerMetrics{
		reasons:   append([]string(nil), reasons...),
		decisions: make([]Counter, len(reasons)),
		index:     make(map[string]int, len(reasons)),
	}
	for i, r := range m.reasons {
		m.index[r] = i
	}
	return m
}

// Register binds the bundle into reg under the canonical pls_controller_*
// names with a rank label. Call once per (registry, rank).
func (m *ControllerMetrics) Register(reg *Registry, rank int) {
	l := rankLabel(rank)
	reg.GaugeFunc("pls_controller_q",
		"Exchange fraction the closed-loop controller currently has in force.", l,
		func() float64 { return m.Q.Load() })
	for i, r := range m.reasons {
		c := &m.decisions[i]
		lr := Labels{"rank": l["rank"], "reason": r}
		reg.CounterFunc("pls_controller_decisions_total",
			"Controller Q decisions applied, by reason.", lr,
			func() float64 { return float64(c.Load()) })
	}
}

// Note counts one applied decision under its reason (unknown reasons are
// not counted). The gauge is Q's, set where the fraction is.
func (m *ControllerMetrics) Note(reason string) {
	if i, ok := m.index[reason]; ok {
		m.decisions[i].Add(1)
	}
}
