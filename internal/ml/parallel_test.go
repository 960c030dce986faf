package ml

import (
	"testing"

	"dnsbackscatter/internal/parallel"
	"dnsbackscatter/internal/rng"
)

// forestFingerprint captures everything observable about a trained
// forest: per-row votes and exact importances.
func forestFingerprint(t *testing.T, m *ForestModel, d *Dataset) ([]int, []float64) {
	t.Helper()
	preds := make([]int, d.Len())
	for i, row := range d.X {
		preds[i] = m.Predict(row)
	}
	return preds, m.Importance()
}

// TestForestWorkerCountInvariant is the train-stage determinism bar:
// per-tree seeded streams make the forest byte-identical no matter how
// many workers trained it. Every worker count gets a dataset of its own,
// so the column ranking is first touched by that many trees at once.
func TestForestWorkerCountInvariant(t *testing.T) {
	train := func(w int) ([]int, []float64) {
		d := blobs(4, 30, 6, 1.5, 0.4, 7)
		m := Forest{Config: ForestConfig{Trees: 40, Workers: w}}.TrainForest(d, rng.New(99))
		return forestFingerprint(t, m, d)
	}
	wantPreds, wantImp := train(1)
	for _, w := range []int{2, 8} {
		preds, imp := train(w)
		for i := range preds {
			if preds[i] != wantPreds[i] {
				t.Fatalf("workers=%d: prediction[%d] = %d, want %d", w, i, preds[i], wantPreds[i])
			}
		}
		for i := range imp {
			if imp[i] != wantImp[i] {
				t.Fatalf("workers=%d: importance[%d] = %v, want exactly %v", w, i, imp[i], wantImp[i])
			}
		}
	}
}

// TestMajorityWorkerCountInvariant checks the voting ensemble: per-member
// seeds decouple member training from scheduling.
func TestMajorityWorkerCountInvariant(t *testing.T) {
	d := blobs(3, 25, 5, 1.5, 0.5, 13)
	tr := Forest{Config: ForestConfig{Trees: 10}}
	want := TrainMajorityWorkers(tr, d, 5, 1, rng.New(21))
	for _, w := range []int{2, 8} {
		got := TrainMajorityWorkers(tr, d, 5, w, rng.New(21))
		for i, row := range d.X {
			if got.Predict(row) != want.Predict(row) {
				t.Fatalf("workers=%d: majority vote differs on row %d", w, i)
			}
		}
	}
}

// TestValidatorWorkerCountInvariant checks parallel cross-validation:
// per-fold seeds fixed before fan-out give identical mean±std for every
// worker count, and CrossValidate is exactly the one-worker case. Every
// worker count gets a dataset of its own, so the folds' subsets derive
// their rankings from a parent first ranked by that many folds at once.
func TestValidatorWorkerCountInvariant(t *testing.T) {
	tr := Forest{Config: ForestConfig{Trees: 15}}
	want := CrossValidate(tr, blobs(3, 40, 6, 2, 0.3, 17), 0.6, 6, rng.New(5))
	for _, w := range []int{1, 2, 8} {
		d := blobs(3, 40, 6, 2, 0.3, 17)
		got := Validator{Trainer: tr, TrainFrac: 0.6, Runs: 6, Workers: w}.Run(d, rng.New(5))
		if got != want {
			t.Fatalf("workers=%d: validation result %+v, want %+v", w, got, want)
		}
	}
}

// TestPredictBatchMatchesSequential checks batch prediction is an
// index-ordered fan-out of Predict.
func TestPredictBatchMatchesSequential(t *testing.T) {
	d := blobs(3, 30, 5, 1.5, 0.4, 31)
	m := Forest{Config: ForestConfig{Trees: 20}}.TrainForest(d, rng.New(3))
	got := PredictBatch(m, d.X, parallel.Pool{Workers: 4})
	if len(got) != d.Len() {
		t.Fatalf("PredictBatch returned %d labels for %d rows", len(got), d.Len())
	}
	for i, row := range d.X {
		if want := m.Predict(row); got[i] != want {
			t.Errorf("row %d: batch %d, sequential %d", i, got[i], want)
		}
	}
}
