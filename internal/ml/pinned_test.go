// Cross-commit pins of the tree builder. Every other test here compares a
// build with itself (workers 1 vs 8, tree vs reference split), so a
// change that moved every tree the same way would pass them all. The
// digests below were recorded once, from the builder that gathered and
// sorted (value, label) pairs at every node, and may only change in a
// commit that says it changes trained models.
package ml_test

import (
	"hash/fnv"
	"math"
	"testing"

	backscatter "dnsbackscatter"
	"dnsbackscatter/internal/classify"
	"dnsbackscatter/internal/ml"
	"dnsbackscatter/internal/rng"
)

// forestPins holds one FNV-1a digest per trainer, over every node
// (feature, threshold bits, label) and every importance bit.
type forestPins struct {
	CART, Forest, Validate uint64
}

func pinsOf(d *ml.Dataset) forestPins {
	var p forestPins
	h := fnv.New64a()
	ml.WriteTree(h, ml.CART{Config: ml.CARTConfig{MaxDepth: 12}}.TrainTree(d, rng.New(11)))
	p.CART = h.Sum64()

	h = fnv.New64a()
	ml.WriteForest(h, ml.Forest{Config: ml.ForestConfig{Trees: 60}}.TrainForest(d, rng.New(12)))
	p.Forest = h.Sum64()

	h = fnv.New64a()
	v := ml.Validator{Trainer: ml.Forest{Config: ml.ForestConfig{Trees: 60}}, TrainFrac: 0.6, Runs: 5}.Run(d, rng.New(13))
	ml.WriteFloats(h, v.Accuracy.Mean, v.Accuracy.Std, v.Precision.Mean, v.Precision.Std,
		v.Recall.Mean, v.Recall.Std, v.F1.Mean, v.F1.Std)
	p.Validate = h.Sum64()
	return p
}

// mditl returns the labelled set of an M-Root DITL build, the design
// matrix the paper's tables train on: 12 classes, heavy ties and constant
// columns among the static features.
func mditl(t *testing.T, scale float64, minRows int) *ml.Dataset {
	t.Helper()
	ds := backscatter.Build(backscatter.MDitl().Scaled(scale))
	d, _, err := classify.NewPipeline().TrainingSet(ds.Whole(), ds.Labels)
	if err != nil {
		t.Fatal(err)
	}
	if d.Len() < minRows {
		t.Fatalf("m-ditl x%v training set has %d rows; its pin would be vacuous", scale, d.Len())
	}
	return d
}

// TestForestPinned trains a depth-capped CART, a 60-tree forest and a
// 5-split validation on two M-Root DITL labelled sets (36 and 289 rows)
// and two Gaussian datasets, and compares each with the recorded digest.
func TestForestPinned(t *testing.T) {
	for _, tc := range []struct {
		name string
		d    *ml.Dataset
		want forestPins
	}{
		{"m-ditl-0.3", mditl(t, 0.3, 30), forestPins{CART: 0xacdf5c6e530264e, Forest: 0x1f2e5eb48bf9bba7, Validate: 0xf4b97156240c624c}},
		{"m-ditl-2", mditl(t, 2, 250), forestPins{CART: 0xaffd02f9a1e8b416, Forest: 0x5e9277ce7e1ff8ba, Validate: 0x34c80f6ea2bfe930}},
		{"random-3", ml.RandomDataset(3), forestPins{CART: 0x1d349280b904e0d9, Forest: 0x961efbe48e1b890e, Validate: 0xf9dd474f0f39fab}},
		{"random-8", ml.RandomDataset(8), forestPins{CART: 0x5f1728a61d46caad, Forest: 0x6a5dde8113a74f8e, Validate: 0x20d750957ac8cb90}},
	} {
		if got := pinsOf(tc.d); got != tc.want {
			t.Errorf("%s (%d rows x %d features): trained models moved:\n got %#v\nwant %#v",
				tc.name, tc.d.Len(), tc.d.NumFeatures(), got, tc.want)
		}
	}
}

// TestTreeMatchesReferenceMDitl is TestTreeMatchesReference on the
// production shape, which the split screen must hold on: the M-Root DITL
// labelled set (12 classes, 22 features), with a forest tree's
// MaxFeatures = round(√22) = 5, bootstrap on and off.
func TestTreeMatchesReferenceMDitl(t *testing.T) {
	d := mditl(t, 2, 250)
	cfg := ml.CARTConfig{MaxFeatures: int(math.Round(math.Sqrt(float64(d.NumFeatures()))))}
	for seed := uint64(1); seed <= 20; seed++ {
		for _, bootstrap := range []bool{false, true} {
			if diff := ml.MatchReference(d, cfg, seed, bootstrap); diff != "" {
				t.Fatalf("seed %d bootstrap=%v: %s", seed, bootstrap, diff)
			}
		}
	}
}
