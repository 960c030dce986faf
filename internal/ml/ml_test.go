package ml

import (
	"math"
	"strings"
	"testing"

	"dnsbackscatter/internal/rng"
)

// blobs builds a k-class Gaussian-blob dataset with the given per-class
// center separation; noise controls overlap.
func blobs(k, perClass, dims int, sep, noise float64, seed uint64) *Dataset {
	st := rng.New(seed)
	var x [][]float64
	var y []int
	for cls := 0; cls < k; cls++ {
		for i := 0; i < perClass; i++ {
			row := make([]float64, dims)
			for d := range row {
				center := 0.0
				if d%k == cls {
					center = sep
				}
				row[d] = center + noise*st.NormFloat64()
			}
			x = append(x, row)
			y = append(y, cls)
		}
	}
	d, err := NewDataset(x, y, k)
	if err != nil {
		panic(err)
	}
	return d
}

func TestNewDatasetValidation(t *testing.T) {
	if _, err := NewDataset([][]float64{{1}}, []int{0, 1}, 2); err == nil {
		t.Error("mismatched rows/labels accepted")
	}
	if _, err := NewDataset(nil, nil, 2); err == nil {
		t.Error("empty dataset accepted")
	}
	if _, err := NewDataset([][]float64{{1}, {1, 2}}, []int{0, 0}, 2); err == nil {
		t.Error("ragged rows accepted")
	}
	if _, err := NewDataset([][]float64{{1}}, []int{5}, 2); err == nil {
		t.Error("out-of-range label accepted")
	}
	if _, err := NewDataset([][]float64{{}, {}}, []int{0, 1}, 2); err == nil {
		t.Error("rows without features accepted")
	}
	if _, err := NewDataset([][]float64{{1}}, []int{0}, math.MaxInt16+1); err == nil {
		t.Error("more classes than a tree's int16 label holds accepted")
	}
	for _, bad := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := NewDataset([][]float64{{1, 2, 3}, {4, 5, bad}, {7, 8, 9}}, []int{0, 1, 0}, 2)
		if err == nil {
			t.Errorf("feature value %v accepted", bad)
		} else if msg := err.Error(); !strings.Contains(msg, "row 1") || !strings.Contains(msg, "column 2") {
			t.Errorf("feature value %v: error %q does not name row 1, column 2", bad, msg)
		}
	}
	d, err := NewDataset([][]float64{{1, 2}, {3, math.Copysign(0, -1)}}, []int{0, 1}, 2)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() != 2 || d.NumFeatures() != 2 {
		t.Error("dims wrong")
	}
}

func TestSubsetAndClassCounts(t *testing.T) {
	d := blobs(3, 10, 4, 1, 0.1, 1)
	counts := d.ClassCounts()
	for cls, c := range counts {
		if c != 10 {
			t.Errorf("class %d count = %d", cls, c)
		}
	}
	sub := d.Subset([]int{0, 10, 20})
	if sub.Len() != 3 {
		t.Fatal("subset length wrong")
	}
	if sub.Y[0] != 0 || sub.Y[1] != 1 || sub.Y[2] != 2 {
		t.Error("subset labels wrong")
	}
}

// checkRanking compares d's ranking with one sorted from scratch over the
// same rows. The two may order equal values differently, so per column
// it asks for a permutation of the rows that reads the same values.
func checkRanking(t *testing.T, what string, d *Dataset) {
	t.Helper()
	got := d.ranked()
	fresh := &Dataset{X: d.X, Y: d.Y, NumClasses: d.NumClasses}
	want := fresh.ranked()
	if got.n != d.Len() || got.nf != d.NumFeatures() || len(got.order) != len(want.order) {
		t.Fatalf("%s: ranking is %d x %d with %d ranks, dataset is %d x %d", what, got.n, got.nf, len(got.order), d.Len(), d.NumFeatures())
	}
	for f := 0; f < got.nf; f++ {
		seen := make([]bool, got.n)
		for k := 0; k < got.n; k++ {
			row, wantRow := got.order[f*got.n+k], want.order[f*got.n+k]
			if seen[row] {
				t.Fatalf("%s: column %d ranks row %d twice", what, f, row)
			}
			seen[row] = true
			if got.col(f)[row] != d.X[row][f] {
				t.Fatalf("%s: column %d row %d holds %v, X has %v", what, f, row, got.col(f)[row], d.X[row][f])
			}
			if d.X[row][f] != d.X[wantRow][f] {
				t.Fatalf("%s: column %d rank %d is row %d (%v), sorted from scratch it is row %d (%v)",
					what, f, k, row, d.X[row][f], wantRow, d.X[wantRow][f])
			}
		}
	}
}

// TestSubsetRanking: a subset's ranking, filtered from its parent's, is
// the ranking of its rows — whether the rows are a sorted sample, repeat,
// arrive out of order, leave classes empty or are empty themselves, and
// through a chain of subsets whose middle link was never trained on.
func TestSubsetRanking(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		st := rng.New(seed)
		d := tiedDataset(st)
		checkRanking(t, "whole", d)
		train, test := StratifiedSplit(d, 0.6, st)
		boot := make([]int, d.Len())
		for i := range boot {
			boot[i] = st.Intn(d.Len())
		}
		var oneClass []int
		for i, y := range d.Y {
			if y == d.Y[0] {
				oneClass = append(oneClass, i)
			}
		}
		for name, rows := range map[string][]int{
			"train": train, "test": test, "bootstrap": boot, "one class": oneClass,
			"shuffled": st.Perm(d.Len()), "empty": {},
		} {
			sub := d.Subset(rows)
			checkRanking(t, name, sub)
			if len(rows) == 0 {
				continue
			}
			// A subset of the subset, first ranked through a fresh chain
			// (neither link ranked yet), then through the ranked one.
			again := make([]int, 1+st.Intn(2*len(rows)))
			for i := range again {
				again[i] = st.Intn(len(rows))
			}
			checkRanking(t, name+" of a fresh subset", d.Subset(rows).Subset(again))
			checkRanking(t, name+" of a ranked subset", sub.Subset(again))
		}
	}
}

// TestSubsetDoesNotAliasRows: the caller may reuse its index slice.
func TestSubsetDoesNotAliasRows(t *testing.T) {
	d := blobs(3, 10, 4, 1, 0.1, 1)
	rows := []int{3, 14, 25, 7}
	sub := d.Subset(rows)
	clear(rows)
	checkRanking(t, "after the caller cleared its slice", sub)
}

func TestStratifiedSplit(t *testing.T) {
	d := blobs(4, 20, 3, 1, 0.1, 2)
	st := rng.New(3)
	train, test := StratifiedSplit(d, 0.6, st)
	if len(train)+len(test) != d.Len() {
		t.Fatalf("split sizes %d+%d != %d", len(train), len(test), d.Len())
	}
	trainCounts := d.Subset(train).ClassCounts()
	for cls, c := range trainCounts {
		if c != 12 {
			t.Errorf("class %d train count = %d, want 12", cls, c)
		}
	}
	// No overlap.
	seen := make(map[int]bool)
	for _, i := range train {
		seen[i] = true
	}
	for _, i := range test {
		if seen[i] {
			t.Fatal("train/test overlap")
		}
	}
}

func TestStratifiedSplitTinyClasses(t *testing.T) {
	x := [][]float64{{0}, {1}, {2}, {3}}
	y := []int{0, 0, 0, 1} // class 1 has a single sample
	d, _ := NewDataset(x, y, 2)
	train, test := StratifiedSplit(d, 0.6, rng.New(1))
	if len(train) == 0 || len(test) == 0 {
		t.Fatal("degenerate split")
	}
	// The lone class-1 sample must land in train (every class trains).
	found := false
	for _, i := range train {
		if d.Y[i] == 1 {
			found = true
		}
	}
	if !found {
		t.Error("singleton class missing from training split")
	}
}

func TestConfusionMetricsPerfect(t *testing.T) {
	c := NewConfusion(3)
	for cls := 0; cls < 3; cls++ {
		for i := 0; i < 5; i++ {
			c.Add(cls, cls)
		}
	}
	m := c.Score()
	if m.Accuracy != 1 || m.Precision != 1 || m.Recall != 1 || m.F1 != 1 {
		t.Errorf("perfect metrics = %+v", m)
	}
	if c.Total() != 15 {
		t.Errorf("Total = %d", c.Total())
	}
}

func TestConfusionMetricsKnown(t *testing.T) {
	// 2 classes: class 0 has 8 right, 2 wrong; class 1 has 6 right, 4 wrong.
	c := NewConfusion(2)
	for i := 0; i < 8; i++ {
		c.Add(0, 0)
	}
	for i := 0; i < 2; i++ {
		c.Add(0, 1)
	}
	for i := 0; i < 6; i++ {
		c.Add(1, 1)
	}
	for i := 0; i < 4; i++ {
		c.Add(1, 0)
	}
	m := c.Score()
	if math.Abs(m.Accuracy-0.7) > 1e-9 {
		t.Errorf("accuracy = %v, want 0.7", m.Accuracy)
	}
	// precision0 = 8/12, precision1 = 6/8 -> macro 0.708333
	if math.Abs(m.Precision-(8.0/12+6.0/8)/2) > 1e-9 {
		t.Errorf("precision = %v", m.Precision)
	}
	// recall0 = 0.8, recall1 = 0.6 -> macro 0.7
	if math.Abs(m.Recall-0.7) > 1e-9 {
		t.Errorf("recall = %v", m.Recall)
	}
}

func TestConfusionSkipsAbsentClasses(t *testing.T) {
	c := NewConfusion(5)
	c.Add(0, 0)
	c.Add(0, 0)
	m := c.Score()
	if m.Accuracy != 1 || m.Precision != 1 {
		t.Errorf("absent classes dragged metrics: %+v", m)
	}
}

func TestCARTSeparatesBlobs(t *testing.T) {
	d := blobs(3, 40, 6, 2, 0.3, 10)
	res := CrossValidate(CART{Config: CARTConfig{MaxDepth: 8}}, d, 0.6, 5, rng.New(11))
	if res.Accuracy.Mean < 0.9 {
		t.Errorf("CART accuracy on separable blobs = %v", res.Accuracy.Mean)
	}
}

func TestForestSeparatesBlobs(t *testing.T) {
	d := blobs(3, 40, 6, 2, 0.3, 10)
	res := CrossValidate(Forest{Config: ForestConfig{Trees: 30}}, d, 0.6, 3, rng.New(11))
	if res.Accuracy.Mean < 0.95 {
		t.Errorf("RF accuracy on separable blobs = %v", res.Accuracy.Mean)
	}
}

func TestSVMSeparatesBlobs(t *testing.T) {
	d := blobs(3, 40, 6, 2, 0.3, 10)
	res := CrossValidate(SVM{}, d, 0.6, 3, rng.New(11))
	if res.Accuracy.Mean < 0.9 {
		t.Errorf("SVM accuracy on separable blobs = %v", res.Accuracy.Mean)
	}
}

func TestForestBeatsCARTOnNoisyData(t *testing.T) {
	// With overlap and more classes, the ensemble should win on average —
	// the ordering the paper reports in Table III.
	d := blobs(6, 30, 10, 1.2, 0.8, 20)
	st := rng.New(21)
	cart := CrossValidate(CART{Config: CARTConfig{MaxDepth: 10}}, d, 0.6, 10, st)
	rf := CrossValidate(Forest{Config: ForestConfig{Trees: 60}}, d, 0.6, 10, st)
	if rf.Accuracy.Mean <= cart.Accuracy.Mean {
		t.Errorf("RF (%.3f) did not beat CART (%.3f)", rf.Accuracy.Mean, cart.Accuracy.Mean)
	}
}

func TestForestImportanceFindsSignal(t *testing.T) {
	// Only feature 0 carries signal; everything else is noise.
	st := rng.New(30)
	var x [][]float64
	var y []int
	for i := 0; i < 200; i++ {
		cls := i % 2
		row := make([]float64, 8)
		row[0] = float64(cls)*3 + 0.3*st.NormFloat64()
		for d := 1; d < 8; d++ {
			row[d] = st.NormFloat64()
		}
		x = append(x, row)
		y = append(y, cls)
	}
	d, _ := NewDataset(x, y, 2)
	m := Forest{Config: ForestConfig{Trees: 40}}.TrainForest(d, rng.New(31))
	top := m.TopFeatures(3)
	if top[0].Feature != 0 {
		t.Errorf("top feature = %d, want 0 (importances %v)", top[0].Feature, m.Importance())
	}
	if top[0].Importance < 0.5 {
		t.Errorf("signal feature importance = %v, want dominant", top[0].Importance)
	}
}

func TestTreeImportanceNormalized(t *testing.T) {
	d := blobs(3, 30, 5, 2, 0.3, 40)
	tree := CART{Config: CARTConfig{MaxDepth: 6}}.TrainTree(d, rng.New(41))
	imp := tree.Importance()
	sum := 0.0
	for _, v := range imp {
		if v < 0 {
			t.Fatal("negative importance")
		}
		sum += v
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("importance sums to %v", sum)
	}
}

func TestCARTDepthLimit(t *testing.T) {
	d := blobs(2, 50, 4, 2, 0.3, 50)
	tree := CART{Config: CARTConfig{MaxDepth: 1}}.TrainTree(d, rng.New(51))
	depth := treeDepth(tree.nodes, 0)
	if depth > 1 {
		t.Errorf("depth = %d with MaxDepth 1", depth)
	}
}

// treeDepth is the depth of the subtree at nodes[i].
func treeDepth(nodes []node, i int) int {
	if nodes[i].feature < 0 {
		return 0
	}
	return 1 + max(treeDepth(nodes, i+1), treeDepth(nodes, int(nodes[i].right)))
}

func TestCARTPureLeafShortCircuit(t *testing.T) {
	x := [][]float64{{1}, {2}, {3}}
	y := []int{1, 1, 1}
	d, _ := NewDataset(x, y, 2)
	tree := CART{}.TrainTree(d, rng.New(1))
	if len(tree.nodes) != 1 || tree.nodes[0].feature != -1 || tree.nodes[0].label != 1 {
		t.Error("pure dataset should yield a single leaf")
	}
}

func TestDeterministicTraining(t *testing.T) {
	d := blobs(3, 30, 5, 1.5, 0.5, 60)
	m1 := Forest{Config: ForestConfig{Trees: 20}}.TrainForest(d, rng.New(61))
	m2 := Forest{Config: ForestConfig{Trees: 20}}.TrainForest(d, rng.New(61))
	for i := 0; i < d.Len(); i++ {
		if m1.Predict(d.X[i]) != m2.Predict(d.X[i]) {
			t.Fatal("same-seed forests disagree")
		}
	}
}

func TestMajorityVote(t *testing.T) {
	d := blobs(3, 30, 5, 1.5, 0.5, 70)
	st := rng.New(71)
	m := TrainMajority(Forest{Config: ForestConfig{Trees: 10}}, d, 5, st)
	if len(m.Members) != 5 {
		t.Fatal("wrong member count")
	}
	metrics := Evaluate(m, d, seqInts(d.Len()))
	if metrics.Accuracy < 0.8 {
		t.Errorf("majority ensemble accuracy = %v", metrics.Accuracy)
	}
}

// constLabel is a classifier that always predicts itself.
type constLabel int

func (c constLabel) Predict([]float64) int { return int(c) }

// TestMajorityTiesToLowestLabel pins the vote's tie rule, whatever order
// the members vote in, for labels past the stack tally too.
func TestMajorityTiesToLowestLabel(t *testing.T) {
	for _, tc := range []struct {
		votes []int
		want  int
	}{
		{[]int{3, 1, 3, 1}, 1},
		{[]int{1, 3, 1, 3}, 1},
		{[]int{2, 0, 0, 2, 5}, 0},
		{[]int{4, 4, 2}, 4},
		{[]int{70, 7, 70, 7, 100}, 7},
		{[]int{9}, 9},
		{nil, 0},
	} {
		m := &Majority{}
		for _, v := range tc.votes {
			m.Members = append(m.Members, constLabel(v))
		}
		if got := m.Predict(nil); got != tc.want {
			t.Errorf("votes %v: majority %d, want %d", tc.votes, got, tc.want)
		}
	}
}

func seqInts(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestSVMHandlesMissingClass(t *testing.T) {
	// Dataset declares 4 classes but only 2 appear; pairwise training
	// must skip empty pairs instead of crashing.
	x := [][]float64{{0}, {0.1}, {3}, {3.1}}
	y := []int{0, 0, 2, 2}
	d, _ := NewDataset(x, y, 4)
	m := SVM{}.TrainSVM(d, rng.New(80))
	if got := m.Predict([]float64{0}); got != 0 {
		t.Errorf("predict near class 0 = %d", got)
	}
	if got := m.Predict([]float64{3}); got != 2 {
		t.Errorf("predict near class 2 = %d", got)
	}
}

func TestCrossValidateStability(t *testing.T) {
	d := blobs(3, 40, 6, 2, 0.3, 90)
	res := CrossValidate(Forest{Config: ForestConfig{Trees: 20}}, d, 0.6, 5, rng.New(91))
	if res.Runs != 5 || res.Trainer != "RF" {
		t.Errorf("result meta wrong: %+v", res)
	}
	if res.Accuracy.Std > 0.2 {
		t.Errorf("accuracy std = %v, suspiciously unstable", res.Accuracy.Std)
	}
	if res.F1.Mean <= 0 || res.Precision.Mean <= 0 || res.Recall.Mean <= 0 {
		t.Error("metrics empty")
	}
}

func TestMeanStd(t *testing.T) {
	ms := meanStd([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if math.Abs(ms.Mean-5) > 1e-9 || math.Abs(ms.Std-2) > 1e-9 {
		t.Errorf("meanStd = %+v, want 5 / 2", ms)
	}
	if z := meanStd(nil); z.Mean != 0 || z.Std != 0 {
		t.Error("empty meanStd not zero")
	}
}

func BenchmarkForestTrain(b *testing.B) {
	d := blobs(6, 30, 22, 1.5, 0.5, 100)
	st := rng.New(101)
	for i := 0; i < b.N; i++ {
		Forest{Config: ForestConfig{Trees: 50}}.TrainForest(d, st)
	}
}

func BenchmarkForestPredict(b *testing.B) {
	d := blobs(6, 30, 22, 1.5, 0.5, 100)
	m := Forest{Config: ForestConfig{Trees: 50}}.TrainForest(d, rng.New(101))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Predict(d.X[i%d.Len()])
	}
}

func BenchmarkSVMTrain(b *testing.B) {
	d := blobs(4, 30, 22, 1.5, 0.5, 100)
	st := rng.New(101)
	for i := 0; i < b.N; i++ {
		SVM{}.TrainSVM(d, st)
	}
}
