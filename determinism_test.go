// Seed-matrix determinism test: the PR 3 acceptance bar. The full
// pipeline — build (dedup, filter, extract), train, classify, validate —
// must be a pure function of (spec, seed): byte-identical observability
// snapshots and classification reports at every worker count.
package backscatter_test

import (
	"bytes"
	"fmt"
	"sort"
	"testing"

	backscatter "dnsbackscatter"
	"dnsbackscatter/internal/obs"
)

// seedMatrixSpec is JPDitl shrunk to 5% scale. The default populations
// are too sparse to train at that scale, so the three classes the JP
// authority sees most are deepened (pre-scale) to keep the end-to-end
// path — including training — alive. The faults spec ("" for none) is
// threaded into the build so the chaos matrix can reuse this harness.
func seedMatrixSpec(seed uint64, workers int, fspec string) backscatter.DatasetSpec {
	spec := backscatter.JPDitl().Scaled(0.05).WithParallelism(workers).WithFaults(fspec)
	spec.Seed = seed
	spec.MinQueriers = 10
	spec.Population[backscatter.Spam] = 300
	spec.Population[backscatter.Scan] = 300
	spec.Population[backscatter.Mail] = 200
	return spec
}

// pipelineRun executes the whole Figure 2 pipeline for one (seed,
// workers, faults) cell and returns the observability snapshot plus a
// rendered classification report (per-originator labels, validation
// metrics, feature importances) for byte comparison.
func pipelineRun(t *testing.T, seed uint64, workers int, fspec string) (snapJSON, report []byte) {
	t.Helper()
	reg := backscatter.NewRegistry()
	reg.SetClock(obs.TickClock(1))
	ds := backscatter.BuildObserved(seedMatrixSpec(seed, workers, fspec), reg)

	model, err := ds.TrainClassifier(3)
	if err != nil {
		t.Fatalf("seed=%d workers=%d: train: %v", seed, workers, err)
	}
	labels := model.ClassifyAll(ds.Whole())
	addrs := make([]backscatter.Addr, 0, len(labels))
	for a := range labels {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })

	var b bytes.Buffer
	for _, a := range addrs {
		truth := "-"
		if cls, ok := ds.TruthMap()[a]; ok {
			truth = cls.String()
		}
		fmt.Fprintf(&b, "%s\t%s\t%s\n", a, labels[a], truth)
	}
	val, err := ds.Validate(backscatter.AlgRandomForest, 0.7, 4)
	if err != nil {
		t.Fatalf("seed=%d workers=%d: validate: %v", seed, workers, err)
	}
	fmt.Fprintf(&b, "validate\t%+v\n", val)
	names, vals, err := ds.FeatureImportance(5)
	if err != nil {
		t.Fatalf("seed=%d workers=%d: importance: %v", seed, workers, err)
	}
	fmt.Fprintf(&b, "importance\t%v\t%x\n", names, vals)
	return reg.SnapshotJSON(), b.Bytes()
}

// TestSeedMatrixDeterminism runs the pipeline at workers ∈ {1, 2, 8} ×
// 3 seeds and asserts the sequential run's bytes — snapshot and report,
// floats rendered exactly — at every worker count.
func TestSeedMatrixDeterminism(t *testing.T) {
	for _, seed := range []uint64{1404, 7, 99} {
		wantSnap, wantReport := pipelineRun(t, seed, 1, "")
		if len(wantReport) == 0 {
			t.Fatalf("seed=%d: empty classification report", seed)
		}
		for _, w := range []int{2, 8} {
			gotSnap, gotReport := pipelineRun(t, seed, w, "")
			if !bytes.Equal(gotSnap, wantSnap) {
				t.Errorf("seed=%d workers=%d: SnapshotJSON differs from sequential run", seed, w)
			}
			if !bytes.Equal(gotReport, wantReport) {
				t.Errorf("seed=%d workers=%d: classification report differs from sequential run:\n--- workers=1 ---\n%s--- workers=%d ---\n%s",
					seed, w, wantReport, w, gotReport)
			}
		}
	}
}
