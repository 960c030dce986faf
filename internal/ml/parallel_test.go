package ml

import (
	"math"
	"slices"
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
// index-ordered fan-out of Predict for every classifier kind, at one
// worker and at several sharing the model: Predict only reads it (an SVM
// that standardized rows into a buffer on the model gave other labels
// here, and a race under -race).
func TestPredictBatchMatchesSequential(t *testing.T) {
	d := blobs(3, 60, 5, 1.5, 0.4, 31)
	forest := Forest{Config: ForestConfig{Trees: 20}}.TrainForest(d, rng.New(3))
	tree := CART{}.TrainTree(d, rng.New(4))
	svm := SVM{}.TrainSVM(d, rng.New(5))
	maj := &Majority{Members: []Classifier{forest, tree, svm}}
	for _, clf := range []Classifier{tree, forest, maj, svm} {
		for _, w := range []int{1, 2, 8} {
			checkBatch(t, clf, d.X, w)
		}
	}
}

// TestVotesMatchPredict holds the tree-major kernel to the row-by-row
// walk: Votes tallies what each tree's Predict says, and PredictBatch
// labels what Predict does, for a forest, a Majority (of forests and a
// tree) and a bare CART tree, at every row count from 0 to 9 — so groups
// of fewer than four rows run too — and past a vote block. The rows
// include NaN and ±Inf features and features exactly at a split's
// threshold, which go left.
func TestVotesMatchPredict(t *testing.T) {
	d := blobs(3, 30, 5, 1.5, 0.4, 31)
	forest := Forest{Config: ForestConfig{Trees: 20}}.TrainForest(d, rng.New(3))
	tree := CART{}.TrainTree(d, rng.New(4))
	maj := &Majority{Members: []Classifier{forest, tree, Forest{Config: ForestConfig{Trees: 7}}.TrainForest(d, rng.New(5))}}

	rows := slices.Clone(d.X)
	for f := range d.NumFeatures() {
		for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
			x := slices.Clone(d.X[f])
			x[f] = v
			rows = append(rows, x)
		}
	}
	for _, tr := range append(slices.Clone(forest.trees), tree) {
		for _, n := range tr.nodes[:min(len(tr.nodes), 9)] {
			if n.feature >= 0 {
				x := slices.Clone(d.X[len(rows)%d.Len()])
				x[n.feature] = n.threshold
				rows = append(rows, x)
			}
		}
	}
	// A row at a threshold goes left, as Predict's walk does.
	root := tree.nodes[0]
	x := slices.Clone(d.X[0])
	x[root.feature] = root.threshold
	if !descendsLeft(tree, x) {
		t.Fatal("a feature at the root's threshold did not go left")
	}

	nc := forest.numClasses
	var dst []int
	for n := 0; n <= 9; n++ {
		for off := 0; off+n <= len(rows); off += 7 {
			X := rows[off : off+n]
			dst = forest.Votes(X, dst)
			want := make([]int, n*nc)
			for r, x := range X {
				for _, tr := range forest.trees {
					want[r*nc+tr.Predict(x)]++
				}
			}
			if !slices.Equal(dst, want) {
				t.Fatalf("rows [%d, %d): Votes %v, trees one by one %v", off, off+n, dst, want)
			}
		}
	}
	for _, clf := range []Classifier{forest, maj, tree} {
		for n := 0; n <= 9; n++ {
			for _, w := range []int{1, 3} {
				for off := 0; off+n <= len(rows); off += 11 {
					checkBatch(t, clf, rows[off:off+n], w)
				}
			}
		}
		checkBatch(t, clf, rows, 1) // more rows than a vote block
		checkBatch(t, clf, rows, 2)
	}
}

// checkBatch fails t unless PredictBatch labels X as Predict does.
func checkBatch(t *testing.T, clf Classifier, X [][]float64, workers int) {
	t.Helper()
	got := PredictBatch(clf, X, nil, parallel.Pool{Workers: workers})
	if len(got) != len(X) {
		t.Fatalf("%T: PredictBatch returned %d labels for %d rows", clf, len(got), len(X))
	}
	for r, x := range X {
		if want := clf.Predict(x); got[r] != want {
			t.Fatalf("%T, %d rows, workers %d: row %d batch %d, Predict %d", clf, len(X), workers, r, got[r], want)
		}
	}
}

// descendsLeft reports whether x reaches a leaf in the root's left
// subtree, the nodes before its right child in pre-order.
func descendsLeft(t *Tree, x []float64) bool {
	i := 0
	for t.nodes[i].feature >= 0 {
		if x[t.nodes[i].feature] <= t.nodes[i].threshold {
			i++
		} else {
			i = int(t.nodes[i].right)
		}
	}
	return i < int(t.nodes[0].right)
}
