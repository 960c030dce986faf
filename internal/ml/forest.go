package ml

import (
	"math"
	"slices"

	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/parallel"
	"dnsbackscatter/internal/prof"
	"dnsbackscatter/internal/rng"
)

// ForestConfig controls Random Forest training.
// Its trees grow without a depth cap down to one-row leaves and examine
// round(√F) of the F features at each split.
type ForestConfig struct {
	Trees int // number of trees (default 100)

	// Workers bounds tree-training goroutines; <= 0 uses GOMAXPROCS(0)
	// and 1 trains sequentially. Every tree draws from its own seeded
	// rng stream (derived from the caller's stream before fan-out), so
	// the trained forest is byte-identical for every worker count.
	Workers int
	// Obs, when non-nil, records the training fan-out under the
	// parallel_* metrics with stage="train".
	Obs *obs.Registry
	// Acct, when non-nil, accumulates the train stage's resource
	// accounting (alloc deltas, worker peaks) on the ops channel.
	Acct *prof.Accountant
}

// Forest trains a Random Forest (Breiman 2001): bagged CART trees with
// per-split feature subsampling and majority voting. The paper finds RF
// the strongest of its three algorithms (Table III) and uses its Gini
// importances for Table IV.
type Forest struct {
	Config ForestConfig
}

// Name implements Trainer.
func (Forest) Name() string { return "RF" }

// ForestModel is a trained forest.
type ForestModel struct {
	trees      []*Tree
	numClasses int
	importance []float64
}

// Train implements Trainer.
func (f Forest) Train(d *Dataset, st *rng.Stream) Classifier {
	return f.TrainForest(d, st)
}

// TrainForest trains and returns the concrete model. Each tree gets its
// own rng stream, seeded from st in tree order before any tree trains:
// tree t's bootstrap and split subsampling are a pure function of
// (st, t), so the forest — trees, votes, and importances — is
// byte-identical whether trained by one worker or many.
func (f Forest) TrainForest(d *Dataset, st *rng.Stream) *ForestModel {
	cfg := f.Config
	if cfg.Trees <= 0 {
		cfg.Trees = 100
	}
	mf := max(1, int(math.Round(math.Sqrt(float64(d.NumFeatures())))))
	cart := CART{Config: CARTConfig{MaxFeatures: mf}}

	m := &ForestModel{
		numClasses: d.NumClasses,
		importance: make([]float64, d.NumFeatures()),
	}
	seeds := make([]uint64, cfg.Trees)
	for t := range seeds {
		seeds[t] = st.Uint64()
	}
	tok := cfg.Acct.Start("train")
	pool := parallel.Pool{Workers: cfg.Workers, Obs: cfg.Obs, Stage: "train", Acct: cfg.Acct}
	m.trees = parallel.Map(pool, cfg.Trees, func(t int) *Tree {
		return cart.trainTree(d, rng.New(seeds[t]), true)
	})
	// Importances merge sequentially in tree order: float summation
	// order is fixed, so the totals match bit for bit across runs.
	for _, tree := range m.trees {
		for i, v := range tree.Importance() {
			m.importance[i] += v
		}
	}
	for i := range m.importance {
		m.importance[i] /= float64(cfg.Trees)
	}
	tok.End()
	return m
}

// Predict implements Classifier by majority vote over trees, ties to the
// lowest label: the one-row case of Votes, its tally on the stack up to
// 64 classes.
func (m *ForestModel) Predict(x []float64) int {
	var buf [64]int
	return majorityLabel(m.Votes([][]float64{x}, buf[:0]))
}

// Votes returns dst resized to hold every tree's vote for every row of X,
// row r's tally over the k trained classes at dst[r·k:(r+1)·k]. Every row
// goes through tree t before tree t+1, so the tree's nodes are read from
// cache; blocks of about 64 rows, as PredictBatch passes, stay there too.
func (m *ForestModel) Votes(X [][]float64, dst []int) []int {
	dst = slices.Grow(dst[:0], len(X)*m.numClasses)[:len(X)*m.numClasses]
	clear(dst)
	for _, t := range m.trees {
		t.vote(X, dst, m.numClasses)
	}
	return dst
}

// Importance returns mean per-feature Gini importance across trees,
// summing to ~1.
func (m *ForestModel) Importance() []float64 {
	out := make([]float64, len(m.importance))
	copy(out, m.importance)
	return out
}

// FeatureRank pairs a feature index with its importance.
type FeatureRank struct {
	Feature    int
	Importance float64
}

// TopFeatures returns the k most discriminative features, descending —
// the content of Table IV.
func (m *ForestModel) TopFeatures(k int) []FeatureRank {
	ranks := make([]FeatureRank, len(m.importance))
	for i, v := range m.importance {
		ranks[i] = FeatureRank{Feature: i, Importance: v}
	}
	slices.SortFunc(ranks, func(a, b FeatureRank) int {
		switch {
		case a.Importance > b.Importance:
			return -1
		case a.Importance < b.Importance:
			return 1
		default:
			return a.Feature - b.Feature
		}
	})
	if k < len(ranks) {
		ranks = ranks[:k]
	}
	return ranks
}
