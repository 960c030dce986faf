package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"

	"dnsbackscatter/internal/simtime"
)

func TestCounterGaugeBasics(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("q_total", L("a", "x"))
	c.Inc()
	c.Add(4)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if r.Counter("q_total", L("a", "x")) != c {
		t.Error("same name+labels did not return the same counter")
	}
	if r.Counter("q_total", L("a", "y")) == c {
		t.Error("different labels returned the same counter")
	}
	g := r.Gauge("depth")
	g.SetAt(7, 0)
	g.Add(-3)
	if got := g.Value(); got != 4 {
		t.Errorf("gauge = %d, want 4", got)
	}
}

func TestNilSafety(t *testing.T) {
	var r *Registry
	r.Counter("x").Inc()
	r.Gauge("y").SetAt(1, 0)
	r.Histogram("z").Observe(1)
	r.SetClock(TickClock(1))
	sp := r.StartSpan("s")
	sp.End()
	if len(r.Snapshot()) != 0 {
		t.Error("nil registry snapshot not empty")
	}
	if got := r.StageReport(); got != "no stages recorded\n" {
		t.Errorf("nil registry stage report = %q", got)
	}
}

func TestLabelOrderCanonical(t *testing.T) {
	r := NewRegistry()
	a := r.Counter("m", L("k1", "v1"), L("k2", "v2"))
	b := r.Counter("m", L("k2", "v2"), L("k1", "v1"))
	if a != b {
		t.Error("label order changed metric identity")
	}
}

// TestHistogramBuckets pins the log-linear layout: unit buckets below 8,
// then 8 sub-buckets per power of two.
func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		v   uint64
		idx int
	}{
		{0, 0}, {1, 1}, {7, 7}, // exact unit buckets
		{8, 8}, {15, 15}, // first log decade, width 1
		{16, 16}, {17, 16}, {31, 23}, // width 2
		{32, 24}, {63, 31}, // width 4
		{64, 32}, {1 << 20, 8 * 18},
	}
	for _, c := range cases {
		if got := bucketIndex(c.v); got != c.idx {
			t.Errorf("bucketIndex(%d) = %d, want %d", c.v, got, c.idx)
		}
	}
	// Every bucket's lower bound maps back to that bucket, and the value
	// just below it maps to the previous one.
	for i := 1; i < 100; i++ {
		lo := bucketLower(i)
		if got := bucketIndex(lo); got != i {
			t.Fatalf("bucketIndex(bucketLower(%d)=%d) = %d", i, lo, got)
		}
		if got := bucketIndex(lo - 1); got != i-1 {
			t.Fatalf("bucketIndex(%d) = %d, want %d", lo-1, got, i-1)
		}
		if w := bucketWidth(i); bucketLower(i+1)-lo != w {
			t.Fatalf("bucketWidth(%d) = %d, want %d", i, w, bucketLower(i+1)-lo)
		}
	}
}

func TestHistogramQuantiles(t *testing.T) {
	h := NewRegistry().Histogram("lat")
	for v := int64(1); v <= 1000; v++ {
		h.Observe(v)
	}
	if h.Count() != 1000 || h.Sum() != 500500 || h.Max() != 1000 {
		t.Fatalf("count=%d sum=%d max=%d", h.Count(), h.Sum(), h.Max())
	}
	// Log-linear buckets guarantee ≤12.5% relative error.
	checks := []struct {
		q    float64
		want float64
	}{{0.5, 500}, {0.9, 900}, {0.99, 990}, {0, 1}, {1, 1000}}
	for _, c := range checks {
		got := float64(h.Quantile(c.q))
		if got < c.want*0.875 || got > c.want*1.125 {
			t.Errorf("Quantile(%g) = %g, want within 12.5%% of %g", c.q, got, c.want)
		}
	}
	if h.Mean() != 500.5 {
		t.Errorf("Mean = %g, want 500.5", h.Mean())
	}
}

func TestHistogramNegativeClamps(t *testing.T) {
	h := NewRegistry().Histogram("d")
	h.Observe(-5)
	if h.Count() != 1 || h.Sum() != 0 || h.Quantile(0.5) != 0 {
		t.Errorf("negative observation not clamped: count=%d sum=%d", h.Count(), h.Sum())
	}
}

// feed drives one registry through a fixed mixed workload.
func feed(r *Registry) {
	r.SetClock(TickClock(2))
	for i := 0; i < 50; i++ {
		r.Counter("queries_total", L("authority", "jp")).Inc()
		if i%3 == 0 {
			r.Counter("queries_total", L("authority", "b-root")).Add(2)
		}
		r.Histogram("batch_size").Observe(int64(i * i))
	}
	r.Gauge("campaigns", L("class", "scan")).SetAt(42, 0)
	for i := 0; i < 4; i++ {
		sp := r.StartSpan("dedup")
		r.now() // nested clock reading, like instrumented work would make
		sp.End()
	}
}

// TestSnapshotDeterminism is the layer's core guarantee: two registries
// fed identically produce byte-identical text and JSON snapshots.
func TestSnapshotDeterminism(t *testing.T) {
	a, b := NewRegistry(), NewRegistry()
	feed(a)
	feed(b)
	if !bytes.Equal(a.Snapshot(), b.Snapshot()) {
		t.Errorf("text snapshots differ:\n%s\n----\n%s", a.Snapshot(), b.Snapshot())
	}
	if !bytes.Equal(a.SnapshotJSON(), b.SnapshotJSON()) {
		t.Errorf("JSON snapshots differ:\n%s\n----\n%s", a.SnapshotJSON(), b.SnapshotJSON())
	}
	text := string(a.Snapshot())
	for _, want := range []string{
		`queries_total{authority="jp"} 50`,
		`queries_total{authority="b-root"} 34`,
		`campaigns{class="scan"} 42`,
		`batch_size_count 50`,
		`stage_ticks_count{stage="dedup"} 4`,
	} {
		if !strings.Contains(text, want) {
			t.Errorf("snapshot missing %q:\n%s", want, text)
		}
	}
	var doc map[string]any
	if err := json.Unmarshal(a.SnapshotJSON(), &doc); err != nil {
		t.Fatalf("JSON snapshot does not parse: %v", err)
	}
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	for i := 1; i < len(lines); i++ {
		if lines[i-1] >= lines[i] {
			t.Errorf("snapshot lines not strictly sorted: %q >= %q", lines[i-1], lines[i])
		}
	}
}

// TestSpanTicks checks the deterministic span arithmetic: with a tick
// clock, a span's duration counts the clock readings between start and
// end.
func TestSpanTicks(t *testing.T) {
	r := NewRegistry()
	r.SetClock(TickClock(1))
	sp := r.StartSpan("extract") // reading 1
	sp.End()                     // reading 2: duration 1
	sp = r.StartSpan("extract")  // reading 3
	r.now()                      // reading 4
	r.now()                      // reading 5
	sp.End()                     // reading 6: duration 3
	h := r.Histogram(stageHist, L("stage", "extract"))
	if h.Count() != 2 || h.Sum() != 4 || h.Max() != 3 {
		t.Errorf("span histogram count=%d sum=%d max=%d, want 2/4/3", h.Count(), h.Sum(), h.Max())
	}
	rep := r.StageReport()
	if !strings.Contains(rep, "extract") {
		t.Errorf("stage report missing stage:\n%s", rep)
	}
}

func TestStageReportSorted(t *testing.T) {
	r := NewRegistry()
	r.SetClock(TickClock(1))
	for _, s := range []string{"filter", "dedup", "extract", "classify"} {
		sp := r.StartSpan(s)
		sp.End()
	}
	rep := r.StageReport()
	order := []string{"classify", "dedup", "extract", "filter"}
	last := -1
	for _, s := range order {
		i := strings.Index(rep, s)
		if i < 0 {
			t.Fatalf("stage %q missing from report:\n%s", s, rep)
		}
		if i < last {
			t.Errorf("stage %q out of order in report:\n%s", s, rep)
		}
		last = i
	}
}

// TestConcurrentIncrements exercises the atomic paths under the race
// detector (internal/obs is in the Makefile's RACE_PKGS) and checks that
// no increment is lost.
func TestConcurrentIncrements(t *testing.T) {
	r := NewRegistry()
	r.SetClock(TickClock(1))
	const workers, perWorker = 8, 10000
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			c := r.Counter("shared_total")
			h := r.Histogram("shared_hist")
			g := r.Gauge("shared_gauge")
			for i := 0; i < perWorker; i++ {
				c.Inc()
				h.Observe(int64(i % 100))
				g.Add(1)
				if i%1000 == 0 {
					sp := r.StartSpan("worker")
					sp.End()
					_ = r.Snapshot() // concurrent reads must be safe too
				}
			}
		}(w)
	}
	wg.Wait()
	if got := r.Counter("shared_total").Value(); got != workers*perWorker {
		t.Errorf("counter = %d, want %d", got, workers*perWorker)
	}
	if got := r.Histogram("shared_hist").Count(); got != workers*perWorker {
		t.Errorf("histogram count = %d, want %d", got, workers*perWorker)
	}
	if got := r.Gauge("shared_gauge").Value(); got != workers*perWorker {
		t.Errorf("gauge = %d, want %d", got, workers*perWorker)
	}
}

func TestEscapedLabels(t *testing.T) {
	r := NewRegistry()
	r.Counter("m", L("k", `a"b\c`)).Inc()
	text := string(r.Snapshot())
	if !strings.Contains(text, `m{k="a\"b\\c"} 1`) {
		t.Errorf("label escaping wrong:\n%s", text)
	}
}

func TestClockUnits(t *testing.T) {
	// A clock in simulated seconds: spans measure simulated durations.
	r := NewRegistry()
	now := simtime.Date(2014, 4, 15, 11, 0)
	r.SetClock(func() simtime.Time { return now })
	sp := r.StartSpan("interval")
	now = now.Add(simtime.Hour)
	sp.End()
	h := r.Histogram(stageHist, L("stage", "interval"))
	if h.Sum() != uint64(simtime.Hour) {
		t.Errorf("span duration = %d, want %d", h.Sum(), simtime.Hour)
	}
}
