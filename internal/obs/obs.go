// Package obs is the reproduction's observability layer: a registry of
// labeled counters, gauges, and log-linear histograms, plus simulated-time
// stage spans for the Figure 2 pipeline.
//
// The paper's sensor is an operational system (§III-A collects at busy
// authoritative servers; §VII worries about sensor erosion), so the
// reproduction needs the same visibility a deployment would have: query
// and drop rates at the server, cache hit ratios, per-level attenuation
// through the reverse hierarchy, and per-stage pipeline costs. obs
// provides that without breaking the repository's determinism rules:
//
//   - Metrics are lock-cheap: registration takes the registry mutex once,
//     increments are plain atomics, safe under -race.
//   - Spans are timed by an injectable simtime-compatible Clock, never the
//     wall clock. Simulations and tests install TickClock for exactly
//     reproducible "durations"; operational mains (cmd/) may install
//     simtime.Wall or a finer wall-backed clock.
//   - Snapshots are byte-deterministic: metrics render sorted by fully
//     labeled identity, so two registries fed identically produce
//     identical text and JSON output.
//
// Nil-safety is part of the contract: every method on a nil *Registry,
// *Counter, *Gauge, or *Histogram is a no-op (or zero), so instrumented
// packages hold an optional registry without guarding call sites.
package obs

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"

	"dnsbackscatter/internal/simtime"
)

// Label is one name=value metric dimension.
type Label struct {
	// Key is the dimension name, e.g. "level".
	Key string
	// Value is the dimension value, e.g. "root".
	Value string
}

// L constructs a Label.
func L(key, value string) Label { return Label{Key: key, Value: value} }

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil Counter discards increments.
type Counter struct {
	id  string
	v   atomic.Uint64
	win atomic.Pointer[Window]
}

// Inc adds one.
func (c *Counter) Inc() {
	if c != nil {
		c.v.Add(1)
	}
}

// Add adds n.
func (c *Counter) Add(n uint64) {
	if c != nil {
		c.v.Add(n)
	}
}

// IncAt adds one, attributing the increment to simulated time now so an
// attached Window buckets it. Without a window it is exactly Inc.
func (c *Counter) IncAt(now simtime.Time) { c.AddAt(1, now) }

// AddAt adds n, attributing the increment to simulated time now so an
// attached Window buckets it. Without a window it is exactly Add.
func (c *Counter) AddAt(n uint64, now simtime.Time) {
	if c == nil {
		return
	}
	c.v.Add(n)
	if w := c.win.Load(); w != nil {
		w.add(c.id, int64(n), now)
	}
}

// Value returns the current count (0 for a nil Counter).
func (c *Counter) Value() uint64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down. A nil Gauge discards writes.
type Gauge struct {
	id  string
	v   atomic.Int64
	win atomic.Pointer[Window]
}

// SetAt stores v, attributing the reading to simulated time now so an
// attached Window buckets it (last write in a bucket wins). Without a
// window it only stores v.
func (g *Gauge) SetAt(v int64, now simtime.Time) {
	if g == nil {
		return
	}
	g.v.Store(v)
	if w := g.win.Load(); w != nil {
		w.set(g.id, v, now)
	}
}

// Add adjusts the gauge by delta.
func (g *Gauge) Add(delta int64) {
	if g != nil {
		g.v.Add(delta)
	}
}

// Value returns the current reading (0 for a nil Gauge).
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// Registry holds a process's metrics. Metric constructors are idempotent:
// the same name and label set always returns the same metric, so any
// subsystem may resolve its handles independently. A nil *Registry is a
// valid "observability off" value: constructors return nil metrics and
// spans become no-ops.
type Registry struct {
	mu       sync.Mutex
	counters map[string]*Counter   // guarded by mu
	gauges   map[string]*Gauge     // guarded by mu
	hists    map[string]*Histogram // guarded by mu
	clock    Clock                 // guarded by mu
	window   *Window               // guarded by mu
}

// SetWindow attaches a windowed time-series aggregator: every existing
// and future counter/gauge in the registry routes its IncAt/AddAt/SetAt
// writes into w's buckets. A nil w detaches. Safe to call on a nil
// registry (no-op).
func (r *Registry) SetWindow(w *Window) {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.window = w
	for _, c := range r.counters {
		c.win.Store(w)
	}
	for _, g := range r.gauges {
		g.win.Store(w)
	}
}

// Window returns the attached windowed aggregator, or nil.
func (r *Registry) Window() *Window {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.window
}

// NewRegistry returns an empty registry with no clock (span durations read
// as zero until SetClock installs one).
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// metricID renders the canonical identity of a metric: name plus labels
// sorted by key, e.g. `queries_total{authority="jp",level="root"}`. Equal
// identity means the same metric object; snapshots sort by it.
func metricID(name string, labels []Label) string {
	if len(labels) == 0 {
		return name
	}
	ls := make([]Label, len(labels))
	copy(ls, labels)
	sort.Slice(ls, func(i, j int) bool { return ls[i].Key < ls[j].Key })
	var b strings.Builder
	b.WriteString(name)
	b.WriteByte('{')
	for i, l := range ls {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(l.Key)
		b.WriteString(`="`)
		b.WriteString(escapeLabel(l.Value))
		b.WriteString(`"`)
	}
	b.WriteByte('}')
	return b.String()
}

// escapeLabel backslash-escapes quotes and backslashes in a label value so
// rendered identities stay parseable.
func escapeLabel(v string) string {
	if !strings.ContainsAny(v, `"\`) {
		return v
	}
	var b strings.Builder
	for i := 0; i < len(v); i++ {
		if v[i] == '"' || v[i] == '\\' {
			b.WriteByte('\\')
		}
		b.WriteByte(v[i])
	}
	return b.String()
}

// Counter returns (creating if needed) the counter for name and labels.
func (r *Registry) Counter(name string, labels ...Label) *Counter {
	if r == nil {
		return nil
	}
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[id]
	if !ok {
		c = &Counter{id: id}
		c.win.Store(r.window)
		r.counters[id] = c
	}
	return c
}

// Gauge returns (creating if needed) the gauge for name and labels.
func (r *Registry) Gauge(name string, labels ...Label) *Gauge {
	if r == nil {
		return nil
	}
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[id]
	if !ok {
		g = &Gauge{id: id}
		g.win.Store(r.window)
		r.gauges[id] = g
	}
	return g
}

// Histogram returns (creating if needed) the histogram for name and
// labels.
func (r *Registry) Histogram(name string, labels ...Label) *Histogram {
	if r == nil {
		return nil
	}
	id := metricID(name, labels)
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[id]
	if !ok {
		h = &Histogram{id: id}
		r.hists[id] = h
	}
	return h
}
