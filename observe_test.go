package backscatter

import (
	"bytes"
	"strings"
	"testing"

	"dnsbackscatter/internal/obs"
)

// buildObservedRun drives the full Fig 2 pipeline — build (dedup, filter,
// extract), train, classify — against one fresh registry with a
// deterministic tick clock, and returns that registry.
func buildObservedRun(t *testing.T) *Registry {
	t.Helper()
	reg := NewRegistry()
	reg.SetClock(obs.TickClock(1))
	spec := JPDitl().Scaled(0.6)
	spec.Duration = Duration(24 * 3600)
	spec.Interval = spec.Duration
	spec.MinQueriers = 10
	ds := BuildObserved(spec, reg)
	model, err := ds.TrainClassifier(1)
	if err != nil {
		t.Fatal(err)
	}
	model.ClassifyAll(ds.Whole())
	return reg
}

// TestSnapshotDeterministic pins the PR's central guarantee: two identical
// observed runs produce byte-identical text and JSON snapshots, spans
// included.
func TestSnapshotDeterministic(t *testing.T) {
	a := buildObservedRun(t)
	b := buildObservedRun(t)
	sa, sb := a.Snapshot(), b.Snapshot()
	if !bytes.Equal(sa, sb) {
		t.Errorf("text snapshots differ:\n--- run A ---\n%s--- run B ---\n%s", sa, sb)
	}
	ja, jb := a.SnapshotJSON(), b.SnapshotJSON()
	if !bytes.Equal(ja, jb) {
		t.Errorf("JSON snapshots differ:\n--- run A ---\n%s\n--- run B ---\n%s", ja, jb)
	}
}

// TestPipelineStageSpans checks the stage report covers all four Fig 2
// stages with nonzero call counts and nonzero simulated durations.
func TestPipelineStageSpans(t *testing.T) {
	reg := buildObservedRun(t)
	for _, stage := range []string{"dedup", "filter", "extract", "classify"} {
		h := reg.Histogram("stage_ticks", obs.L("stage", stage))
		if h.Count() == 0 {
			t.Errorf("stage %q: no spans recorded", stage)
		}
		if h.Sum() == 0 {
			t.Errorf("stage %q: zero total duration", stage)
		}
	}
	report := reg.StageReport()
	for _, stage := range []string{"dedup", "filter", "extract", "classify", "train"} {
		if !strings.Contains(report, stage) {
			t.Errorf("StageReport missing stage %q:\n%s", stage, report)
		}
	}
}

// TestBuildObservedCounters sanity-checks that the counters a live /metrics
// endpoint would serve line up with the dataset's own accounting.
func TestBuildObservedCounters(t *testing.T) {
	reg := buildObservedRun(t)
	snap := string(reg.Snapshot())
	get := func(name string, labels ...obs.Label) uint64 {
		t.Helper()
		return reg.Counter(name, labels...).Value()
	}
	if n := get("pipeline_records_total"); n == 0 {
		t.Error("pipeline_records_total = 0")
	}
	if get("pipeline_records_kept_total") > get("pipeline_records_total") {
		t.Error("kept more records than seen")
	}
	if n := get("pipeline_classified_total"); n == 0 {
		t.Error("pipeline_classified_total = 0")
	}
	// §IV-D: caching attenuates queries level by level — the root of the
	// reverse hierarchy must see no more queries than the final authority.
	root := get("dnssim_queries_total", obs.L("level", "root"))
	final := get("dnssim_queries_total", obs.L("level", "final"))
	if root == 0 || final == 0 || root > final {
		t.Errorf("attenuation violated: root=%d final=%d", root, final)
	}
	for _, metric := range []string{"world_events_total", "dnssim_resolves_total", "cache_hits_total"} {
		if !strings.Contains(snap, metric) {
			t.Errorf("snapshot missing %s:\n%s", metric, snap[:min(len(snap), 2000)])
		}
	}
}
