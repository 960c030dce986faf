package prof

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestNilSafety pins the "accounting off" contract: every operation on
// a nil accountant, stage, or zero token is a no-op.
func TestNilSafety(t *testing.T) {
	var a *Accountant
	if s := a.Stage("dedup"); s != nil {
		t.Fatalf("nil accountant returned non-nil stage %v", s)
	}
	tok := a.Start("dedup")
	tok.End() // must not panic
	var s *StageAcct
	s.AddShards(5)
	s.EnterWorker()
	s.LeaveWorker()
	s.Start().End()
	r := a.Report()
	if len(r.Stages) != 0 {
		t.Fatalf("nil accountant reported stages: %v", r.Stages)
	}
	if got := string(r.String()); !strings.Contains(got, "no stages") {
		t.Fatalf("empty report table = %q", got)
	}
}

// TestAccountingDeltas drives one stage through an allocating execution
// and checks the deltas land.
func TestAccountingDeltas(t *testing.T) {
	a := New()
	tok := a.Start("extract")
	sink := make([][]byte, 0, 64)
	for i := 0; i < 64; i++ {
		sink = append(sink, make([]byte, 4096))
	}
	tok.End()
	_ = sink
	r := a.Report()
	if len(r.Stages) != 1 || r.Stages[0].Stage != "extract" {
		t.Fatalf("report = %+v, want one extract stage", r.Stages)
	}
	st := r.Stages[0]
	if st.Calls != 1 {
		t.Errorf("calls = %d, want 1", st.Calls)
	}
	if st.AllocBytes < 64*4096 {
		t.Errorf("alloc_bytes = %d, want >= %d", st.AllocBytes, 64*4096)
	}
	if st.Mallocs < 64 {
		t.Errorf("mallocs = %d, want >= 64", st.Mallocs)
	}
	if st.HeapPeakBytes == 0 {
		t.Error("heap peak not sampled")
	}
	if st.GoroutinePeak < 1 {
		t.Errorf("goroutine peak = %d, want >= 1", st.GoroutinePeak)
	}
}

// TestStageIdempotent pins that Stage returns the same handle for the
// same name, and accumulation is shared.
func TestStageIdempotent(t *testing.T) {
	a := New()
	s1 := a.Stage("train")
	s2 := a.Stage("train")
	if s1 != s2 {
		t.Fatal("Stage not idempotent")
	}
	s1.AddShards(3)
	s2.AddShards(4)
	r := a.Report()
	if len(r.Stages) != 1 || r.Stages[0].Shards != 7 {
		t.Fatalf("shards = %+v, want one stage with 7", r.Stages)
	}
}

// TestWorkerPeak pins the concurrent-worker high-water mark under real
// concurrency.
func TestWorkerPeak(t *testing.T) {
	a := New()
	s := a.Stage("classify")
	const workers = 8
	var start, done sync.WaitGroup
	start.Add(1)
	done.Add(workers)
	for i := 0; i < workers; i++ {
		go func() {
			defer done.Done()
			s.EnterWorker()
			start.Wait() // hold all workers live simultaneously
			s.LeaveWorker()
		}()
	}
	for s.liveWork.Load() < workers {
		// Spin until every worker has entered.
	}
	start.Done()
	done.Wait()
	r := a.Report()
	if len(r.Stages) != 1 {
		t.Fatalf("stages = %+v", r.Stages)
	}
	if got := r.Stages[0].WorkerPeak; got != workers {
		t.Errorf("worker peak = %d, want %d", got, workers)
	}
	if got := r.Stages[0].GoroutinePeak; got < workers {
		t.Errorf("goroutine peak = %d, want >= %d", got, workers)
	}
}

// TestReportJSONRoundTrip pins the report JSON round trip bsprof
// depends on, and that stages render sorted.
func TestReportJSONRoundTrip(t *testing.T) {
	a := New()
	a.Stage("filter").AddShards(16)
	a.Start("dedup").End()
	doc := a.Report().JSON()
	if !json.Valid(doc) {
		t.Fatalf("invalid JSON: %s", doc)
	}
	got, err := ParseReport(doc)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Stages) != 2 || got.Stages[0].Stage != "dedup" || got.Stages[1].Stage != "filter" {
		t.Fatalf("round-tripped stages = %+v, want sorted [dedup filter]", got.Stages)
	}
	if _, err := ParseReport([]byte("{nope")); err == nil {
		t.Error("ParseReport accepted malformed JSON")
	}
	if !bytes.Equal(doc, got.JSON()) {
		t.Error("JSON not stable across a parse/render round trip")
	}
}

// TestReportTable pins the human rendering: one row per stage with
// humanized sizes.
func TestReportTable(t *testing.T) {
	a := New()
	tok := a.Start("extract")
	buf := make([]byte, 8<<20)
	tok.End()
	_ = buf
	table := a.Report().String()
	if !strings.Contains(table, "extract") {
		t.Errorf("table missing stage row:\n%s", table)
	}
	if !strings.Contains(table, "MB") && !strings.Contains(table, "KB") {
		t.Errorf("table missing humanized size:\n%s", table)
	}
}

// TestSizeString pins the unit boundaries.
func TestSizeString(t *testing.T) {
	for _, tc := range []struct {
		n    uint64
		want string
	}{
		{0, "0B"}, {1023, "1023B"}, {1024, "1.0KB"},
		{5 << 20, "5.0MB"}, {3 << 30, "3.0GB"},
	} {
		if got := SizeString(tc.n); got != tc.want {
			t.Errorf("SizeString(%d) = %q, want %q", tc.n, got, tc.want)
		}
	}
}

// TestStableGoroutines sanity-checks the drain helper: it returns a
// positive count and does not hang.
func TestStableGoroutines(t *testing.T) {
	if n := StableGoroutines(); n < 1 {
		t.Errorf("StableGoroutines() = %d", n)
	}
}
