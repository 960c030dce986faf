package obs

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"dnsbackscatter/internal/simtime"
)

// Window buckets metric writes by simulated-time interval, turning
// run-total counters into time series: attach one to a Registry with
// SetWindow and every IncAt/AddAt/SetAt lands in the bucket of its
// timestamp. Counters accumulate per-bucket deltas; gauges keep the last
// value written in each bucket. Like the rest of obs, renders are sorted
// by (metric identity, bucket) and therefore byte-deterministic, and a
// nil *Window discards writes.
//
// Only call sites that carry a simulated timestamp feed the window (the
// *At variants); plain Inc/Add writes stay totals-only. That split is
// deliberate: metrics whose values depend on scheduling (worker pools)
// have no meaningful simulated time and must not leak wall-clock order
// into a deterministic artifact.
type Window struct {
	mu       sync.Mutex
	width    simtime.Duration
	counters map[string]map[simtime.Time]int64 // metric → bucket → delta sum, guarded by mu
	gauges   map[string]map[simtime.Time]int64 // metric → bucket → last value, guarded by mu
}

// NewWindow returns a window bucketing by the given interval width in
// simulated seconds (width < 1 is clamped to 1).
func NewWindow(width simtime.Duration) *Window {
	if width < 1 {
		width = 1
	}
	return &Window{
		width:    width,
		counters: make(map[string]map[simtime.Time]int64),
		gauges:   make(map[string]map[simtime.Time]int64),
	}
}

// bucket floors t to its containing interval start.
func (w *Window) bucket(t simtime.Time) simtime.Time {
	return t - t%simtime.Time(w.width)
}

// add accumulates a counter delta into t's bucket.
func (w *Window) add(id string, n int64, t simtime.Time) {
	if w == nil {
		return
	}
	w.mu.Lock()
	m, ok := w.counters[id]
	if !ok {
		m = make(map[simtime.Time]int64)
		w.counters[id] = m
	}
	m[w.bucket(t)] += n
	w.mu.Unlock()
}

// set records a gauge value into t's bucket (last write wins).
func (w *Window) set(id string, v int64, t simtime.Time) {
	if w == nil {
		return
	}
	w.mu.Lock()
	m, ok := w.gauges[id]
	if !ok {
		m = make(map[simtime.Time]int64)
		w.gauges[id] = m
	}
	m[w.bucket(t)] = v
	w.mu.Unlock()
}

// Point is one (bucket start, value) sample of a windowed series.
type Point struct {
	// T is the bucket's start time in simulated Unix seconds.
	T simtime.Time `json:"t"`
	// V is the counter delta (or last gauge value) in the bucket.
	V int64 `json:"v"`
}

// Series is one metric's windowed time series.
type Series struct {
	// Metric is the fully labeled metric identity.
	Metric string `json:"metric"`
	// Points are the non-empty buckets in time order.
	Points []Point `json:"points"`
}

// Timeseries is the windowed snapshot document: what SnapshotJSON writes
// and ParseTimeseries reads. bsserve's /timeseries and bsview alerts'
// replay both speak exactly this document, so they cannot disagree.
type Timeseries struct {
	// Width is the bucket width in simulated seconds.
	Width simtime.Duration `json:"width"`
	// Series are all windowed metrics sorted by identity.
	Series []Series `json:"series"`
}

// series assembles the sorted document under the window lock.
func (w *Window) series() Timeseries {
	doc := Timeseries{Series: []Series{}}
	if w == nil {
		return doc
	}
	w.mu.Lock()
	doc.Width = w.width
	collect := func(src map[string]map[simtime.Time]int64) {
		for id, buckets := range src {
			s := Series{Metric: id, Points: make([]Point, 0, len(buckets))}
			for t, v := range buckets {
				s.Points = append(s.Points, Point{T: t, V: v})
			}
			sort.Slice(s.Points, func(i, j int) bool { return s.Points[i].T < s.Points[j].T })
			doc.Series = append(doc.Series, s)
		}
	}
	collect(w.counters)
	collect(w.gauges)
	w.mu.Unlock()
	sort.Slice(doc.Series, func(i, j int) bool { return doc.Series[i].Metric < doc.Series[j].Metric })
	return doc
}

// Timeseries assembles the window's sorted snapshot document — the
// parsed form of SnapshotJSON, for in-process consumers (the alert
// engine) that query series without a marshal round-trip. Nil windows
// return an empty document.
func (w *Window) Timeseries() Timeseries { return w.series() }

// Snapshot renders the window as sorted text, one bucket per line:
//
//	dnssim_queries_total{level="root"}[2014-04-07T00:00:00Z] 42
//
// Lines sort by (metric identity, bucket), so identically fed windows
// render byte-identical output.
func (w *Window) Snapshot() []byte {
	var b strings.Builder
	for _, s := range w.series().Series {
		for _, p := range s.Points {
			b.WriteString(s.Metric)
			b.WriteByte('[')
			b.WriteString(p.T.String())
			b.WriteString("] ")
			b.WriteString(strconv.FormatInt(p.V, 10))
			b.WriteByte('\n')
		}
	}
	return []byte(b.String())
}

// SnapshotJSON renders the window as the Timeseries JSON document with
// the same sorted-identity determinism guarantee as Snapshot.
func (w *Window) SnapshotJSON() []byte {
	out, err := json.MarshalIndent(w.series(), "", "  ")
	if err != nil {
		// The document is built from plain structs; Marshal cannot fail.
		return []byte("{}")
	}
	return append(out, '\n')
}

// ParseTimeseries parses a SnapshotJSON document. Consumers (bsview
// alerts) read the rendered document rather than re-aggregating, so every view of
// a run's time series comes from one artifact.
func ParseTimeseries(data []byte) (Timeseries, error) {
	var doc Timeseries
	if err := json.Unmarshal(data, &doc); err != nil {
		return Timeseries{}, fmt.Errorf("obs: parse timeseries: %w", err)
	}
	return doc, nil
}

// sparkLevels are the plain-text sparkline rungs, lowest to highest.
const sparkLevels = `_.:-=+*#%@`

// SparkCols bounds a series sparkline: longer ranges sum consecutive
// buckets into each column.
const SparkCols = 120

// Sparkline renders vals as one rung per value, scaled so the largest
// value takes the top rung; values at or below zero take the lowest. The
// scaling divides in T, so integer counts round down exactly.
func Sparkline[T int | int64 | float64](vals []T) string {
	var vmax T
	for _, v := range vals {
		vmax = max(vmax, v)
	}
	b := make([]byte, len(vals))
	for i, v := range vals {
		idx := 0
		if vmax > 0 && v > 0 {
			idx = int(v * T(len(sparkLevels)-1) / vmax)
		}
		b[i] = sparkLevels[idx]
	}
	return string(b)
}

// SparkSeries renders one series as a plain-text sparkline over its
// bucket range (missing buckets read as zero), annotated with the largest
// column, e.g. `_.:=@#:.  max=812`. A range of N > SparkCols buckets puts
// bucket i in column i*SparkCols/N.
func SparkSeries(s Series, width simtime.Duration) string {
	if len(s.Points) == 0 || width < 1 {
		return ""
	}
	lo, hi := s.Points[0].T, s.Points[len(s.Points)-1].T
	buckets := int((hi-lo)/simtime.Time(width)) + 1
	n := min(buckets, SparkCols)
	vals := make([]int64, n)
	for _, p := range s.Points {
		vals[int((p.T-lo)/simtime.Time(width))*n/buckets] += p.V
	}
	return fmt.Sprintf("%s  max=%d", Sparkline(vals), max(0, slices.Max(vals)))
}

// Sparklines renders every windowed series as a sorted block of
// `metric  sparkline  max=N` lines — the /timeseries plain-text view.
func (w *Window) Sparklines() []byte {
	doc := w.series()
	var b strings.Builder
	for _, s := range doc.Series {
		fmt.Fprintf(&b, "%-60s %s\n", s.Metric, SparkSeries(s, doc.Width))
	}
	return []byte(b.String())
}
