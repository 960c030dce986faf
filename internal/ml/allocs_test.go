// The race detector's instrumentation compiles the stack-tally idiom in
// Predict to a heap allocation, and under it sync.Pool drops a share of
// the tree builders put back, so this file builds only without it.

//go:build !race

package ml

import (
	"testing"

	"dnsbackscatter/internal/rng"
)

// TestForestPredictAllocs holds a forest's vote to no allocation: up to
// 64 classes the tally lives on the stack. AllocsPerRun warms up once and
// reports whole allocations per run averaged over 1000 runs, so one stray
// allocation of the runtime's cannot fail a correct vote.
func TestForestPredictAllocs(t *testing.T) {
	d := blobs(6, 30, 22, 1.5, 0.5, 100)
	m := Forest{Config: ForestConfig{Trees: 50}}.TrainForest(d, rng.New(101))
	i := 0
	if n := testing.AllocsPerRun(1000, func() { m.Predict(d.X[i%d.Len()]); i++ }); n != 0 {
		t.Errorf("ForestModel.Predict allocates %v times a vote, want 0", n)
	}
}

// TestTrainTreeAllocs holds a tree's growth — treeBuilder's grow,
// bestSplit and partition over every node — to three allocations a tree:
// the Tree, its importances and the copy of its nodes. The builder and
// its scratch come from a pool and the dataset's ranking is built once.
// The trees examine every feature at a split, and five as a forest's do.
func TestTrainTreeAllocs(t *testing.T) {
	d := blobs(6, 30, 22, 1.5, 0.5, 100)
	st := rng.New(7)
	for _, c := range []CART{{}, {Config: CARTConfig{MaxFeatures: 5}}} {
		if len(c.TrainTree(d, st).nodes) < 3 {
			t.Fatal("the tree never split, so no split path ran")
		}
		if n := testing.AllocsPerRun(1000, func() { c.TrainTree(d, st) }); n > 3 {
			t.Errorf("CART.TrainTree (MaxFeatures %d) makes %.0f allocations a tree, want 3", c.Config.MaxFeatures, n)
		}
	}
}
