package backscatter

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"

	"dnsbackscatter/internal/golden"
)

// streamSpec is the configuration every root stream test replays: small
// enough that the tiny dataset overflows nothing, epoching on the
// dataset's own interval.
func streamSpec(workers int) StreamSpec {
	return StreamSpec{
		SampleK:     128,
		HHHCapacity: 256,
		Workers:     workers,
	}
}

// trainTiny trains the CART model the stream tests score with — cheap,
// deterministic, and shared between the batch and stream paths.
func trainTiny(t *testing.T) (*Dataset, *Model) {
	t.Helper()
	d := tiny(t)
	m, err := d.TrainWith(AlgCART, 1, d.Labels)
	if err != nil {
		t.Fatalf("train: %v", err)
	}
	return d, m
}

// TestStreamWorkerDeterminism extends the repo's worker-invariance
// matrix to the streaming engine: replaying the dataset at workers
// {1, 8} must produce byte-identical snapshots, status, and comparison
// reports. `make determinism` runs this under -race.
func TestStreamWorkerDeterminism(t *testing.T) {
	d, model := trainTiny(t)
	var snaps, statuses, reports [][]byte
	for _, w := range []int{1, 8} {
		e := d.NewStream(streamSpec(w), model)
		const chunk = 4096
		for i := 0; i < len(d.Records); i += chunk {
			e.Ingest(d.Records[i:min(i+chunk, len(d.Records))])
		}
		e.Tick(d.Spec.Start.Add(d.Spec.Duration))
		snaps = append(snaps, e.Snapshot())
		statuses = append(statuses, e.StatusJSON())

		cmp := d.CompareStream(streamSpec(w), model)
		js, err := json.Marshal(cmp)
		if err != nil {
			t.Fatalf("marshal comparison: %v", err)
		}
		reports = append(reports, js)
	}
	if !bytes.Equal(snaps[0], snaps[1]) {
		t.Error("engine snapshot differs between workers 1 and 8")
	}
	if !bytes.Equal(statuses[0], statuses[1]) {
		t.Errorf("engine status differs between workers 1 and 8:\n%s\n%s", statuses[0], statuses[1])
	}
	if !bytes.Equal(reports[0], reports[1]) {
		t.Errorf("CompareStream differs between workers 1 and 8:\n%s\n%s", reports[0], reports[1])
	}
}

// TestCompareStreamGolden pins the batch-vs-stream accuracy gap as a
// golden artifact: per-class precision/recall for both paths live in
// testdata/stream_delta.json, and every run must stay within tolerance
// of the pinned values. Regenerate deliberately with
// BS_UPDATE_GOLDEN=1 go test -run TestCompareStreamGolden .
func TestCompareStreamGolden(t *testing.T) {
	d, model := trainTiny(t)
	cmp := d.CompareStream(streamSpec(0), model)

	if cmp.StreamVerdicts == 0 {
		t.Fatal("stream path produced no verdicts")
	}
	if cmp.Agreement < 0.5 {
		t.Fatalf("stream agrees with batch on only %.0f%% of shared originators",
			100*cmp.Agreement)
	}
	if len(cmp.PerClass) == 0 {
		t.Fatal("comparison has no per-class rows")
	}

	path := filepath.Join("testdata", "stream_delta.json")
	js, err := json.MarshalIndent(cmp, "", "  ")
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	golden.Record(t, path, append(js, '\n'))
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with BS_UPDATE_GOLDEN=1): %v", err)
	}
	var want StreamComparison
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}

	// The run is deterministic, so drift beyond tolerance means the
	// pipeline's accuracy characteristics changed — re-pin deliberately,
	// don't loosen. The tolerance absorbs small intentional changes
	// upstream (extractor tweaks) without churning the artifact.
	const tol = 0.02
	near := func(a, b float64) bool { return math.Abs(a-b) <= tol }
	if cmp.BatchVerdicts != want.BatchVerdicts || cmp.StreamVerdicts != want.StreamVerdicts {
		t.Errorf("verdict counts drifted: batch %d->%d stream %d->%d",
			want.BatchVerdicts, cmp.BatchVerdicts, want.StreamVerdicts, cmp.StreamVerdicts)
	}
	if !near(cmp.Agreement, want.Agreement) {
		t.Errorf("agreement drifted: %.4f -> %.4f", want.Agreement, cmp.Agreement)
	}
	wantByClass := make(map[string]ClassDelta, len(want.PerClass))
	for _, w := range want.PerClass {
		wantByClass[w.Class] = w
	}
	for _, got := range cmp.PerClass {
		w, ok := wantByClass[got.Class]
		if !ok {
			t.Errorf("class %s appeared since the golden was pinned", got.Class)
			continue
		}
		delete(wantByClass, got.Class)
		for _, f := range []struct {
			name      string
			got, want float64
		}{
			{"batch precision", got.BatchPrecision, w.BatchPrecision},
			{"stream precision", got.StreamPrecision, w.StreamPrecision},
			{"batch recall", got.BatchRecall, w.BatchRecall},
			{"stream recall", got.StreamRecall, w.StreamRecall},
			{"precision delta", got.PrecisionDelta, w.PrecisionDelta},
			{"recall delta", got.RecallDelta, w.RecallDelta},
		} {
			if !near(f.got, f.want) {
				t.Errorf("%s %s drifted: %.4f -> %.4f", got.Class, f.name, f.want, f.got)
			}
		}
	}
	for cls := range wantByClass {
		t.Errorf("class %s vanished from the comparison", cls)
	}
}

// TestNewStreamDefaults checks the dataset wiring: the engine inherits
// the dataset's interval as its epoch and its analyzability threshold.
func TestNewStreamDefaults(t *testing.T) {
	d := tiny(t)
	e := d.NewStream(StreamSpec{}, nil)
	e.Ingest(d.Records[:min(2000, len(d.Records))])
	e.Tick(d.Spec.Start.Add(d.Spec.Duration))
	st := e.Status()
	if st.Records == 0 || st.Tracked == 0 {
		t.Fatalf("engine saw nothing: %+v", st)
	}
	if st.Epochs == 0 {
		t.Fatal("final tick did not score — epoch wiring broken")
	}
	if len(e.Verdicts()) != 0 {
		t.Error("nil scorer must produce no verdicts")
	}
	spec := DefaultStreamSpec()
	if spec.Epoch == 0 || spec.MaxOriginators == 0 || spec.SampleK == 0 {
		t.Errorf("DefaultStreamSpec has zero fields: %+v", spec)
	}
}
