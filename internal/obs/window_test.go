package obs

import (
	"bytes"
	"strings"
	"testing"

	"dnsbackscatter/internal/simtime"
)

func TestWindowBucketsCounterDeltas(t *testing.T) {
	reg := NewRegistry()
	win := NewWindow(10)
	reg.SetWindow(win)
	if reg.Window() != win {
		t.Fatal("Window accessor does not return the installed window")
	}
	c := reg.Counter("events_total", L("class", "scan"))
	c.IncAt(3)
	c.IncAt(9)
	c.AddAt(5, 10)
	c.Inc() // plain writes are totals-only: no bucket
	if c.Value() != 8 {
		t.Fatalf("counter total = %d, want 8", c.Value())
	}
	got := string(win.Snapshot())
	want := `events_total{class="scan"}[1970-01-01T00:00:00Z] 2
events_total{class="scan"}[1970-01-01T00:00:10Z] 5
`
	if got != want {
		t.Fatalf("snapshot:\n%s\nwant:\n%s", got, want)
	}
}

func TestWindowGaugeLastWriteWins(t *testing.T) {
	reg := NewRegistry()
	reg.SetWindow(NewWindow(60))
	g := reg.Gauge("campaigns")
	g.SetAt(5, 10)
	g.SetAt(9, 55) // same bucket: overwrites
	g.SetAt(2, 61) // next bucket
	g.Add(1)       // plain write: totals-only
	doc, err := ParseTimeseries(reg.Window().SnapshotJSON())
	if err != nil {
		t.Fatal(err)
	}
	if doc.Width != 60 || len(doc.Series) != 1 {
		t.Fatalf("doc = %+v", doc)
	}
	pts := doc.Series[0].Points
	if len(pts) != 2 || pts[0].V != 9 || pts[1].V != 2 {
		t.Fatalf("points = %+v, want [{0 9} {60 2}]", pts)
	}
}

func TestSetWindowRetrofitsExistingMetrics(t *testing.T) {
	reg := NewRegistry()
	c := reg.Counter("early_total") // created before the window
	g := reg.Gauge("early_gauge")
	reg.SetWindow(NewWindow(1))
	c.IncAt(7)
	g.SetAt(3, 7)
	if got := string(reg.Window().Snapshot()); !strings.Contains(got, "early_total[") ||
		!strings.Contains(got, "early_gauge[") {
		t.Fatalf("pre-window metrics missing from buckets:\n%s", got)
	}
}

func TestWindowNilSafety(t *testing.T) {
	var w *Window
	w.add("x", 1, 0)
	w.set("x", 1, 0)
	if len(w.Snapshot()) != 0 {
		t.Error("nil Snapshot not empty")
	}
	if doc := w.series(); len(doc.Series) != 0 {
		t.Error("nil series not empty")
	}
	if len(w.Sparklines()) != 0 {
		t.Error("nil Sparklines not empty")
	}

	// A registry without a window: *At writes stay totals-only.
	reg := NewRegistry()
	c := reg.Counter("no_window_total")
	c.IncAt(5)
	if c.Value() != 1 {
		t.Error("IncAt without a window lost the total")
	}
	if reg.Window() != nil {
		t.Error("registry window not nil by default")
	}
}

func TestWindowWidthClamp(t *testing.T) {
	if w := NewWindow(0); w.width != 1 {
		t.Fatalf("width = %d, want clamp to 1", w.width)
	}
	// The clamp also guards the bucketing math: a clamped window still
	// floors timestamps without dividing by zero.
	w := NewWindow(-5)
	if w.width != 1 {
		t.Fatalf("width = %d, want clamp to 1", w.width)
	}
	w.add("m_total", 1, 42)
	if doc := w.Timeseries(); doc.Width != 1 || len(doc.Series) != 1 || doc.Series[0].Points[0].T != 42 {
		t.Fatalf("clamped-width write landed at %+v", doc)
	}
}

// TestWindowEmptySnapshot pins the empty-window renders the alert
// engine and /timeseries rely on: a well-formed document with zero
// series and an empty text snapshot.
func TestWindowEmptySnapshot(t *testing.T) {
	w := NewWindow(60)
	if got := string(w.Snapshot()); got != "" {
		t.Errorf("empty Snapshot = %q", got)
	}
	doc, err := ParseTimeseries(w.SnapshotJSON())
	if err != nil {
		t.Fatalf("empty SnapshotJSON does not parse: %v", err)
	}
	if doc.Width != 60 || len(doc.Series) != 0 {
		t.Errorf("empty doc = %+v", doc)
	}
	if got := w.Timeseries(); got.Width != 60 || len(got.Series) != 0 {
		t.Errorf("empty Timeseries = %+v", got)
	}
}

// TestWindowOutOfOrderWrites pins that *At writes landing out of bucket
// order (parallel workers commit in scheduling order) still render in
// time order, byte-identically to the in-order run.
func TestWindowOutOfOrderWrites(t *testing.T) {
	build := func(times []int) *Window {
		w := NewWindow(10)
		for _, at := range times {
			w.add("m_total", 1, simtime.Time(at))
		}
		return w
	}
	ordered := build([]int{3, 12, 25, 27, 48})
	scrambled := build([]int{48, 25, 3, 27, 12})
	if !bytes.Equal(ordered.SnapshotJSON(), scrambled.SnapshotJSON()) {
		t.Fatal("bucket order depends on write order")
	}
	doc := scrambled.Timeseries()
	if len(doc.Series) != 1 {
		t.Fatalf("series = %+v", doc.Series)
	}
	pts := doc.Series[0].Points
	for i := 1; i < len(pts); i++ {
		if pts[i-1].T >= pts[i].T {
			t.Fatalf("points unsorted: %+v", pts)
		}
	}
	if lo, hi := pts[0].T, pts[len(pts)-1].T; lo != 0 || hi != 40 {
		t.Fatalf("bucket range = (%d, %d), want (0, 40)", lo, hi)
	}
}

// TestWindowQueryAPI pins the in-process document the alert engine
// indexes: counters and gauges side by side, sorted by identity, each
// series in bucket order, and an empty document from a nil window.
func TestWindowQueryAPI(t *testing.T) {
	w := NewWindow(10)
	w.add("b_total", 3, 15)
	w.add("b_total", 2, 5)
	w.set("a_gauge", 7, 25)
	doc := w.Timeseries()
	if doc.Width != 10 || len(doc.Series) != 2 {
		t.Fatalf("doc = %+v", doc)
	}
	if a := doc.Series[0]; a.Metric != "a_gauge" || len(a.Points) != 1 || a.Points[0] != (Point{T: 20, V: 7}) {
		t.Fatalf("gauge series = %+v", a)
	}
	if b := doc.Series[1]; b.Metric != "b_total" || len(b.Points) != 2 || b.Points[0] != (Point{T: 0, V: 2}) || b.Points[1] != (Point{T: 10, V: 3}) {
		t.Fatalf("counter series = %+v", b)
	}
	var nilW *Window
	if got := nilW.Timeseries(); got.Width != 0 || len(got.Series) != 0 {
		t.Errorf("nil window document = %+v", got)
	}
}

func TestWindowSnapshotDeterminism(t *testing.T) {
	build := func(order []int) []byte {
		reg := NewRegistry()
		reg.SetWindow(NewWindow(5))
		a := reg.Counter("a_total")
		b := reg.Counter("b_total", L("x", "1"))
		for _, i := range order {
			a.IncAt(simtime.Time(i))
			b.AddAt(uint64(i%3), simtime.Time(i*2))
		}
		return reg.Window().SnapshotJSON()
	}
	fwd := build([]int{1, 2, 3, 7, 11, 13})
	rev := build([]int{13, 11, 7, 3, 2, 1})
	if !bytes.Equal(fwd, rev) {
		t.Fatalf("window JSON depends on write order:\n%s\nvs\n%s", fwd, rev)
	}
}

func TestParseTimeseriesError(t *testing.T) {
	if _, err := ParseTimeseries([]byte("{nope")); err == nil {
		t.Error("malformed document accepted")
	}
}

func TestSparkSeries(t *testing.T) {
	s := Series{Metric: "m", Points: []Point{{T: 0, V: 0}, {T: 10, V: 5}, {T: 20, V: 10}}}
	got := SparkSeries(s, 10)
	if !strings.HasSuffix(got, "max=10") {
		t.Fatalf("SparkSeries = %q", got)
	}
	strip := strings.Fields(got)[0]
	if len(strip) != 3 || strip[0] != '_' || strip[2] != '@' {
		t.Fatalf("sparkline strip = %q, want low-to-high ramp", strip)
	}
	if SparkSeries(Series{}, 10) != "" {
		t.Error("empty series rendered non-empty")
	}

	// Ranges wider than SparkCols buckets compress proportionally.
	wide := Series{Metric: "w", Points: []Point{{T: 0, V: 1}, {T: 10 * 1000, V: 3}}}
	if out := SparkSeries(wide, 10); len(strings.Fields(out)[0]) != SparkCols {
		t.Errorf("wide series strip = %d cols, want %d", len(strings.Fields(out)[0]), SparkCols)
	}

	// Negative values (a falling gauge) take the lowest rung.
	if got := SparkSeries(Series{Points: []Point{{T: 0, V: -4}, {T: 10, V: 8}}}, 10); got != "_@  max=8" {
		t.Errorf("negative bucket = %q", got)
	}
}

// TestSparkSeriesLongRange pins the proportional compression: 240
// buckets of ones sum pairwise into 120 equal columns, where sending the
// tail to the last column once rendered 119 lowest rungs and one '@'.
func TestSparkSeriesLongRange(t *testing.T) {
	var s Series
	for i := 0; i < 240; i++ {
		s.Points = append(s.Points, Point{T: simtime.Time(i * 60), V: 1})
	}
	if got, want := SparkSeries(s, 60), strings.Repeat("@", SparkCols)+"  max=2"; got != want {
		t.Errorf("SparkSeries = %q, want %q", got, want)
	}
}

func TestSparklinesBlock(t *testing.T) {
	reg := NewRegistry()
	reg.SetWindow(NewWindow(2))
	reg.Counter("zz_total").IncAt(0)
	reg.Counter("aa_total").IncAt(2)
	out := string(reg.Window().Sparklines())
	ai, zi := strings.Index(out, "aa_total"), strings.Index(out, "zz_total")
	if ai < 0 || zi < 0 || ai > zi {
		t.Fatalf("sparklines unsorted or missing:\n%s", out)
	}
}
