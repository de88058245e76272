// Package telemetry is the runtime's live observability plane (DESIGN.md
// §11): a per-rank metric registry with allocation-free atomic counters and
// gauges, a Prometheus text-format exposition, and an HTTP server exposing
// /metrics, /trace (Chrome chrome://tracing JSON of the trace.Recorder),
// /healthz (peer-failure state), and /debug/pprof.
//
// The paper's whole argument rests on measuring where epoch time goes —
// exchange vs fwbw vs GEWU — and this package makes those signals visible
// while a run is in flight instead of only in a post-hoc trace dump. The
// design constraint throughout is the PR 2 invariant: instrumented hot
// paths must stay 0 allocs/op. Hot paths therefore hold direct *Counter /
// *Gauge pointers and touch a single atomic word; all naming, labeling, and
// formatting happens at registration or scrape time, never on the training
// iteration.
package telemetry

import (
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; Add and Load are single atomic operations and never allocate, so a
// counter may sit directly on a training or transport hot path.
type Counter struct{ v atomic.Int64 }

// Add increments the counter by delta (which should be non-negative).
func (c *Counter) Add(delta int64) { c.v.Add(delta) }

// Load returns the current value.
func (c *Counter) Load() int64 { return c.v.Load() }

// Gauge is a metric that can go up and down, stored as float64 bits in one
// atomic word. The zero value is ready to use and reads as 0.
type Gauge struct{ v atomic.Uint64 }

// Set stores the gauge value. It is a single atomic store — safe and
// allocation-free on hot paths.
func (g *Gauge) Set(val float64) { g.v.Store(math.Float64bits(val)) }

// SetInt stores an integer gauge value.
func (g *Gauge) SetInt(val int64) { g.Set(float64(val)) }

// Load returns the current value.
func (g *Gauge) Load() float64 { return math.Float64frombits(g.v.Load()) }

// Labels name one metric series. They are rendered once at registration —
// scrapes only copy the prebuilt string — and sorted by key so the
// exposition is deterministic regardless of map iteration order.
type Labels map[string]string

// kind is the Prometheus metric type of a family.
type kind uint8

const (
	kindCounter kind = iota
	kindGauge
)

func (k kind) String() string {
	if k == kindCounter {
		return "counter"
	}
	return "gauge"
}

// series is one (name, labels) time series and its value source.
type series struct {
	labels string // prerendered `{k="v",...}` or ""
	read   func() float64
}

// family groups every series sharing a metric name under one HELP/TYPE
// header, as the Prometheus exposition format requires.
type family struct {
	name   string
	help   string
	kind   kind
	series []series
}

// Registry holds the metric families of one process (typically one rank;
// in-process multi-rank worlds register every rank into a single registry
// with a rank label). Registration takes a lock and may allocate; it
// happens once at startup. Scraping (WritePrometheus) takes the same lock
// but only reads atomics and prebuilt strings — it never contends with hot
// paths, which touch their own atomic words without any registry access.
type Registry struct {
	mu       sync.Mutex
	families []*family // registration order
	index    map[string]*family
	seen     map[string]bool // name+labels duplicates
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*family), seen: make(map[string]bool)}
}

var nameRe = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
var labelRe = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)

// renderLabels produces the canonical `{k="v",...}` string (empty when
// there are no labels), with keys sorted and values escaped.
func renderLabels(labels Labels) (string, error) {
	if len(labels) == 0 {
		return "", nil
	}
	keys := make([]string, 0, len(labels))
	for k := range labels {
		if !labelRe.MatchString(k) {
			return "", fmt.Errorf("telemetry: invalid label name %q", k)
		}
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(k)
		b.WriteString(`="`)
		v := labels[k]
		for _, r := range v {
			switch r {
			case '\\':
				b.WriteString(`\\`)
			case '"':
				b.WriteString(`\"`)
			case '\n':
				b.WriteString(`\n`)
			default:
				b.WriteRune(r)
			}
		}
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String(), nil
}

// register adds one series, creating its family on first sight. It returns
// an error for invalid names, duplicate series, or a name re-registered
// with a different type or help string.
func (r *Registry) register(name, help string, k kind, labels Labels, read func() float64) error {
	if !nameRe.MatchString(name) {
		return fmt.Errorf("telemetry: invalid metric name %q", name)
	}
	ls, err := renderLabels(labels)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	key := name + ls
	if r.seen[key] {
		return fmt.Errorf("telemetry: duplicate series %s%s", name, ls)
	}
	f := r.index[name]
	if f == nil {
		f = &family{name: name, help: help, kind: k}
		r.index[name] = f
		r.families = append(r.families, f)
	} else if f.kind != k {
		return fmt.Errorf("telemetry: metric %s re-registered as %s, was %s", name, k, f.kind)
	}
	r.seen[key] = true
	f.series = append(f.series, series{labels: ls, read: read})
	return nil
}

// mustRegister panics on registration errors — registration happens once at
// startup with programmer-controlled names, so a failure is a bug.
func (r *Registry) mustRegister(name, help string, k kind, labels Labels, read func() float64) {
	if err := r.register(name, help, k, labels, read); err != nil {
		panic(err)
	}
}

// Counter registers and returns a new counter series.
func (r *Registry) Counter(name, help string, labels Labels) *Counter {
	c := &Counter{}
	r.mustRegister(name, help, kindCounter, labels, func() float64 { return float64(c.Load()) })
	return c
}

// Gauge registers and returns a new gauge series.
func (r *Registry) Gauge(name, help string, labels Labels) *Gauge {
	g := &Gauge{}
	r.mustRegister(name, help, kindGauge, labels, func() float64 { return g.Load() })
	return g
}

// GaugeFunc registers a gauge whose value is sampled by fn at scrape time.
// fn runs on the scraper's goroutine and must be safe to call concurrently
// with the instrumented code (read atomics, take no long-held locks).
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() float64) {
	r.mustRegister(name, help, kindGauge, labels, fn)
}

// CounterFunc registers a counter whose cumulative value is sampled by fn
// at scrape time — the pull-model bridge for subsystems that already keep
// their own atomic counters (e.g. the TCP transport's byte accounting).
func (r *Registry) CounterFunc(name, help string, labels Labels, fn func() float64) {
	r.mustRegister(name, help, kindCounter, labels, fn)
}

// WritePrometheus writes the registry in the Prometheus text exposition
// format (version 0.0.4): one HELP/TYPE header per family, one line per
// series, families in registration order, series in registration order
// within a family.
func (r *Registry) WritePrometheus(w io.Writer) error {
	r.mu.Lock()
	// Snapshot the family/series structure — each family by value, so its
	// series slice header is read under the lock — and sample below without
	// blocking registration; series slices are append-only.
	fams := make([]family, len(r.families))
	for i, f := range r.families {
		fams[i] = *f
	}
	r.mu.Unlock()

	var b []byte
	for _, f := range fams {
		b = b[:0]
		b = append(b, "# HELP "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.help...)
		b = append(b, "\n# TYPE "...)
		b = append(b, f.name...)
		b = append(b, ' ')
		b = append(b, f.kind.String()...)
		b = append(b, '\n')
		for _, s := range f.series {
			b = append(b, f.name...)
			b = append(b, s.labels...)
			b = append(b, ' ')
			b = appendValue(b, s.read())
			b = append(b, '\n')
		}
		if _, err := w.Write(b); err != nil {
			return fmt.Errorf("telemetry: writing exposition: %w", err)
		}
	}
	return nil
}

// appendValue renders a sample value: integers exactly (counters are exact
// cross-check targets for the wire-byte conformance tests), other floats in
// shortest-round-trip form.
func appendValue(b []byte, v float64) []byte {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return strconv.AppendInt(b, int64(v), 10)
	}
	return strconv.AppendFloat(b, v, 'g', -1, 64)
}
