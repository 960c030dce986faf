// Package ml implements the machine-learning algorithms the paper
// classifies originators with (§III-D): a CART decision tree, a Random
// Forest, and a kernel SVM, plus the evaluation machinery of §IV-C
// (stratified splits, repeated cross-validation, accuracy / precision /
// recall / F1, confusion matrices, and Gini feature importance).
//
// Everything is written from scratch on the standard library; randomized
// algorithms draw from explicit rng streams so training is reproducible.
package ml

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/parallel"
	"dnsbackscatter/internal/prof"
	"dnsbackscatter/internal/rng"
)

// Dataset is a labeled design matrix. Labels are small ints in
// [0, NumClasses).
//
// X and Y are immutable from the first Train on the dataset or on any
// Subset of it: the tree trainers rank every feature column once, on
// first use, and every later tree, split and subset reuses that ranking.
// A Dataset must not be copied by value.
type Dataset struct {
	X          [][]float64
	Y          []int
	NumClasses int

	rankOnce sync.Once
	rank     *ranked
	// parent and rows are what Subset leaves for ranked to derive from;
	// both are nil on a dataset that ranks itself.
	parent *Dataset
	rows   []int
}

// NewDataset validates and wraps the inputs. Every feature value must be
// finite: a NaN compares equal to everything, so one would leave its
// column — and every tree trained on it — in input-order garbage.
func NewDataset(x [][]float64, y []int, numClasses int) (*Dataset, error) {
	if len(x) != len(y) {
		return nil, fmt.Errorf("ml: %d rows but %d labels", len(x), len(y))
	}
	if len(x) == 0 {
		return nil, fmt.Errorf("ml: empty dataset")
	}
	w := len(x[0])
	if w == 0 || w > math.MaxInt16 || numClasses > math.MaxInt16 { // trees store both as int16
		return nil, fmt.Errorf("ml: %d features and %d classes; want 1 to %d of each", w, numClasses, math.MaxInt16)
	}
	for i, row := range x {
		if len(row) != w {
			return nil, fmt.Errorf("ml: row %d has width %d, want %d", i, len(row), w)
		}
		for j, v := range row {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				return nil, fmt.Errorf("ml: feature value %v at row %d, column %d", v, i, j)
			}
		}
	}
	for i, label := range y {
		if label < 0 || label >= numClasses {
			return nil, fmt.Errorf("ml: label %d out of range at row %d", label, i)
		}
	}
	return &Dataset{X: x, Y: y, NumClasses: numClasses}, nil
}

// Len returns the number of samples.
func (d *Dataset) Len() int { return len(d.Y) }

// NumFeatures returns the design-matrix width.
func (d *Dataset) NumFeatures() int {
	if len(d.X) == 0 {
		return 0
	}
	return len(d.X[0])
}

// Subset returns the dataset restricted to the given row indices, which
// may repeat. Rows are shared, not copied, and so is the column ranking:
// the subset filters d's instead of sorting again.
func (d *Dataset) Subset(idx []int) *Dataset {
	x := make([][]float64, len(idx))
	y := make([]int, len(idx))
	for i, j := range idx {
		x[i], y[i] = d.X[j], d.Y[j]
	}
	return &Dataset{X: x, Y: y, NumClasses: d.NumClasses, parent: d, rows: slices.Clone(idx)}
}

// ranked is the view of a Dataset the tree builder trains from: the
// design matrix column by column, and per column the rows in ascending
// order of value. It is built once per dataset and then only read.
type ranked struct {
	n, nf int
	vals  []float64 // column-major: vals[f*n+i] = X[i][f]
	order []int32   // order[f*n:(f+1)*n]: rows ascending by column f, ties by row
}

// col returns column f of the design matrix.
func (r *ranked) col(f int) []float64 { return r.vals[f*r.n : (f+1)*r.n] }

// ranked returns d's column ranking, building it on first use: sorted
// for a dataset made by NewDataset, filtered in O(F·N) from the parent's
// for one made by Subset — so the splits of a validation, the trees of
// each forest and the forests of a vote share one sort.
func (d *Dataset) ranked() *ranked {
	d.rankOnce.Do(func() {
		n, nf := d.Len(), d.NumFeatures()
		r := &ranked{n: n, nf: nf, vals: make([]float64, nf*n), order: make([]int32, nf*n)}
		for f := 0; f < nf; f++ {
			col, ord := r.col(f), r.order[f*n:(f+1)*n]
			for i, row := range d.X {
				col[i], ord[i] = row[f], int32(i)
			}
			if d.parent == nil { // else filterColumns overwrites ord
				slices.SortStableFunc(ord, func(a, b int32) int { return cmp.Compare(col[a], col[b]) })
			}
		}
		if d.parent != nil {
			r.filterColumns(d.parent.ranked(), d.rows)
			d.parent, d.rows = nil, nil
		}
		d.rank = r
	})
	return d.rank
}

// filterColumns fills r.order for the subset holding p's rows `rows` (in
// that order, repeats allowed): walk each of p's columns in rank order
// and emit the subset positions of every row met. Equal values keep p's
// tie order, then position order.
func (r *ranked) filterColumns(p *ranked, rows []int) {
	// The positions holding p's row i are first[i], link[first[i]], ...
	// in ascending order; -1 ends the chain.
	first, link := make([]int32, p.n), make([]int32, len(rows))
	for i := range first {
		first[i] = -1
	}
	for j := len(rows) - 1; j >= 0; j-- {
		link[j], first[rows[j]] = first[rows[j]], int32(j)
	}
	for f := 0; f < r.nf; f++ {
		out := r.order[f*r.n : f*r.n : (f+1)*r.n]
		for _, i := range p.order[f*p.n : (f+1)*p.n] {
			for j := first[i]; j >= 0; j = link[j] {
				out = append(out, j)
			}
		}
	}
}

// ClassCounts returns the per-class sample counts.
func (d *Dataset) ClassCounts() []int {
	counts := make([]int, d.NumClasses)
	for _, y := range d.Y {
		counts[y]++
	}
	return counts
}

// Classifier predicts a class label for a feature vector. Predict only
// reads the model, so one model serves concurrent callers (PredictBatch's
// workers).
type Classifier interface {
	Predict(x []float64) int
}

// Trainer builds a classifier from a dataset using the supplied stream for
// any internal randomization.
type Trainer interface {
	Train(d *Dataset, st *rng.Stream) Classifier
	Name() string
}

// StratifiedSplit partitions row indices into train/test with the given
// train fraction, preserving class proportions (the paper's random 60/40
// splits are stratified by construction of their labeled sets).
func StratifiedSplit(d *Dataset, trainFrac float64, st *rng.Stream) (train, test []int) {
	byClass := make([][]int, d.NumClasses)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	for _, rows := range byClass {
		st.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		k := int(math.Round(trainFrac * float64(len(rows))))
		if k == 0 && len(rows) > 0 {
			k = 1 // every class keeps at least one training example
		}
		if k == len(rows) && len(rows) > 1 {
			k--
		}
		train = append(train, rows[:k]...)
		test = append(test, rows[k:]...)
	}
	sort.Ints(train)
	sort.Ints(test)
	return train, test
}

// Confusion is a confusion matrix: Counts[truth][predicted].
type Confusion struct {
	Counts [][]int
}

// NewConfusion returns an empty k-class confusion matrix.
func NewConfusion(k int) *Confusion {
	c := &Confusion{Counts: make([][]int, k)}
	for i := range c.Counts {
		c.Counts[i] = make([]int, k)
	}
	return c
}

// Add records one prediction.
func (c *Confusion) Add(truth, pred int) { c.Counts[truth][pred]++ }

// Metrics are the paper's evaluation numbers (§IV-C): accuracy plus
// macro-averaged precision, recall, and F1 over classes present in truth.
type Metrics struct {
	Accuracy  float64
	Precision float64
	Recall    float64
	F1        float64
}

// Score computes Metrics from a confusion matrix. Per-class precision with
// no predicted positives contributes zero (the conservative convention);
// classes absent from truth stay out of the macro averages.
func (c *Confusion) Score() Metrics {
	var m Metrics
	var correct, total, classes int
	for _, pc := range c.PerClass() {
		if pc.Support == 0 {
			continue
		}
		correct += c.Counts[pc.Class][pc.Class]
		total += pc.Support
		classes++
		m.Precision += pc.Precision
		m.Recall += pc.Recall
		m.F1 += pc.F1
	}
	if classes > 0 {
		m.Accuracy = float64(correct) / float64(total)
		m.Precision /= float64(classes)
		m.Recall /= float64(classes)
		m.F1 /= float64(classes)
	}
	return m
}

// ClassMetrics are per-class precision/recall/F1 with supports.
type ClassMetrics struct {
	Class     int
	Support   int // true members in the evaluation
	Predicted int // predicted members
	Precision float64
	Recall    float64
	F1        float64
}

// PerClass returns metrics for every class with either truth or predicted
// members — the per-class view behind §IV-C's sparse-class discussion.
func (c *Confusion) PerClass() []ClassMetrics {
	k := len(c.Counts)
	var out []ClassMetrics
	for cls := 0; cls < k; cls++ {
		tp := c.Counts[cls][cls]
		var fn, fp int
		for j := 0; j < k; j++ {
			if j != cls {
				fn += c.Counts[cls][j]
				fp += c.Counts[j][cls]
			}
		}
		if tp+fn == 0 && tp+fp == 0 {
			continue
		}
		m := ClassMetrics{Class: cls, Support: tp + fn, Predicted: tp + fp}
		if tp+fp > 0 {
			m.Precision = float64(tp) / float64(tp+fp)
		}
		if tp+fn > 0 {
			m.Recall = float64(tp) / float64(tp+fn)
		}
		if m.Precision+m.Recall > 0 {
			m.F1 = 2 * m.Precision * m.Recall / (m.Precision + m.Recall)
		}
		out = append(out, m)
	}
	return out
}

// EvaluateConfusion runs clf over the test rows of d and returns the raw
// confusion matrix.
func EvaluateConfusion(clf Classifier, d *Dataset, rows []int) *Confusion {
	conf, test := NewConfusion(d.NumClasses), d.Subset(rows)
	for i, pred := range PredictBatch(clf, test.X, nil, parallel.Pool{Workers: 1}) {
		conf.Add(test.Y[i], pred)
	}
	return conf
}

// Evaluate runs clf over the test rows of d and scores it.
func Evaluate(clf Classifier, d *Dataset, rows []int) Metrics {
	return EvaluateConfusion(clf, d, rows).Score()
}

// PredictBatch labels every row of xs under the pool into dst, resized to
// len(xs): the one batch entry point. A forest votes tree-major in blocks
// of 64 rows, a Majority runs each member's rows as here, other models
// predict row by row. Predictions are identical for every worker count:
// prediction only reads trained state.
func PredictBatch(clf Classifier, xs [][]float64, dst []int, pool parallel.Pool) []int {
	dst = slices.Grow(dst[:0], len(xs))[:len(xs)]
	pool.EachRange(len(xs), func(lo, hi int) { predictRows(clf, xs[lo:hi], dst[lo:hi]) })
	return dst
}

// predictRows is PredictBatch on the calling goroutine.
func predictRows(clf Classifier, X [][]float64, out []int) {
	switch m := clf.(type) {
	case *ForestModel:
		var buf [64 * 16]int // a block's tally, on the stack up to 16 classes
		for lo, nc := 0, m.numClasses; lo < len(X); lo += 64 {
			votes := m.Votes(X[lo:min(lo+64, len(X))], buf[:0])
			for r := range len(votes) / nc {
				out[lo+r] = majorityLabel(votes[r*nc : (r+1)*nc])
			}
		}
	case *Majority:
		n, labels := len(X), make([]int, len(X)*len(m.Members))
		for j, c := range m.Members {
			predictRows(c, X, labels[j*n:(j+1)*n])
		}
		for r := range out {
			out[r] = m.vote(func(j int) int { return labels[j*n+r] })
		}
	default:
		for r, x := range X {
			out[r] = clf.Predict(x)
		}
	}
}

// MeanStd summarizes repeated runs.
type MeanStd struct {
	Mean, Std float64
}

func meanStd(xs []float64) MeanStd {
	if len(xs) == 0 {
		return MeanStd{}
	}
	var sum float64
	for _, v := range xs {
		sum += v
	}
	mean := sum / float64(len(xs))
	var ss float64
	for _, v := range xs {
		ss += (v - mean) * (v - mean)
	}
	return MeanStd{Mean: mean, Std: math.Sqrt(ss / float64(len(xs)))}
}

// ValidationResult aggregates repeated random-split validation.
type ValidationResult struct {
	Trainer   string
	Runs      int
	Accuracy  MeanStd
	Precision MeanStd
	Recall    MeanStd
	F1        MeanStd
}

// CrossValidate repeats (split, train, test) runs times — the paper's 50
// iterations of random 60/40 splits — and reports mean and std of each
// metric. It is Validator.Run with sequential execution; results are
// identical at any Validator worker count.
func CrossValidate(tr Trainer, d *Dataset, trainFrac float64, runs int, st *rng.Stream) ValidationResult {
	return Validator{Trainer: tr, TrainFrac: trainFrac, Runs: runs, Workers: 1}.Run(d, st)
}

// Validator runs repeated random-split validation (§IV-C) with the folds
// fanned across workers. Each fold derives its own rng stream from the
// caller's stream, seeded in fold order before fan-out, so the result is
// byte-identical for every worker count.
type Validator struct {
	// Trainer is the algorithm under validation.
	Trainer Trainer
	// TrainFrac is the training share of each split (the paper uses 0.6).
	TrainFrac float64
	// Runs is the number of random splits (the paper uses 50).
	Runs int
	// Workers bounds concurrent folds; <= 0 uses GOMAXPROCS(0).
	Workers int
	// Obs, when non-nil, records the fold fan-out under the parallel_*
	// metrics with stage="validate".
	Obs *obs.Registry
	// Acct, when non-nil, accumulates the validate stage's resource
	// accounting on the ops channel.
	Acct *prof.Accountant
}

// Run executes the folds and aggregates mean±std of each metric in fold
// order.
func (v Validator) Run(d *Dataset, st *rng.Stream) ValidationResult {
	seeds := make([]uint64, v.Runs)
	for r := range seeds {
		seeds[r] = st.Uint64()
	}
	tok := v.Acct.Start("validate")
	pool := parallel.Pool{Workers: v.Workers, Obs: v.Obs, Stage: "validate", Acct: v.Acct}
	ms := parallel.Map(pool, v.Runs, func(r int) Metrics {
		rs := rng.New(seeds[r])
		trainIdx, testIdx := StratifiedSplit(d, v.TrainFrac, rs)
		clf := v.Trainer.Train(d.Subset(trainIdx), rs)
		return Evaluate(clf, d, testIdx)
	})
	acc := make([]float64, 0, v.Runs)
	prec := make([]float64, 0, v.Runs)
	rec := make([]float64, 0, v.Runs)
	f1 := make([]float64, 0, v.Runs)
	for _, m := range ms {
		acc = append(acc, m.Accuracy)
		prec = append(prec, m.Precision)
		rec = append(rec, m.Recall)
		f1 = append(f1, m.F1)
	}
	res := ValidationResult{
		Trainer:   v.Trainer.Name(),
		Runs:      v.Runs,
		Accuracy:  meanStd(acc),
		Precision: meanStd(prec),
		Recall:    meanStd(rec),
		F1:        meanStd(f1),
	}
	tok.End()
	return res
}

// Majority wraps n independently trained classifiers and predicts by vote,
// implementing the paper's "run each 10 times and take the majority" rule
// for nondeterministic algorithms. Ties break toward the lowest label.
type Majority struct {
	Members []Classifier
}

// TrainMajorityWorkers trains the n ensemble members across workers.
// Each member derives its own rng stream from st, seeded in member order
// before fan-out, so the ensemble is byte-identical for every worker
// count.
func TrainMajorityWorkers(tr Trainer, d *Dataset, n, workers int, st *rng.Stream) *Majority {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = st.Uint64()
	}
	pool := parallel.Pool{Workers: workers}
	return &Majority{Members: parallel.Map(pool, n, func(i int) Classifier {
		return tr.Train(d, rng.New(seeds[i]))
	})}
}

// Predict returns the majority vote, ties to the lowest label.
func (m *Majority) Predict(x []float64) int {
	return m.vote(func(j int) int { return m.Members[j].Predict(x) })
}

// vote tallies every member j's label(j) and returns the majority, ties to
// the lowest label. The tally is indexed by label and, for labels below
// 64, lives on the stack.
func (m *Majority) vote(label func(j int) int) int {
	var buf [64]int
	votes := buf[:0]
	for j := range m.Members {
		l := label(j)
		for len(votes) <= l {
			votes = append(votes, 0)
		}
		votes[l]++
	}
	return majorityLabel(votes)
}
