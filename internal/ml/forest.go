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
type ForestConfig struct {
	Trees       int // number of trees (default 100)
	MaxDepth    int // per-tree depth cap (0 = unlimited)
	MinLeaf     int // per-tree leaf minimum (default 1)
	MaxFeatures int // features per split; 0 = round(sqrt(F))

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
	mf := cfg.MaxFeatures
	if mf <= 0 {
		mf = int(math.Round(math.Sqrt(float64(d.NumFeatures()))))
		if mf < 1 {
			mf = 1
		}
	}
	cart := CART{Config: CARTConfig{
		MaxDepth:    cfg.MaxDepth,
		MinLeaf:     cfg.MinLeaf,
		MaxFeatures: mf,
	}}

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

// Predict implements Classifier by majority vote over trees.
func (m *ForestModel) Predict(x []float64) int {
	votes := make([]int, m.numClasses)
	for _, t := range m.trees {
		votes[t.Predict(x)]++
	}
	return majorityLabel(votes)
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
