// Cross-commit pins of the tree builder. Every other test here compares a
// build with itself (workers 1 vs 8, tree vs reference split), so a
// change that moved every tree the same way would pass them all. The
// forest/ digests in the module's testdata/digests.txt were recorded once, from the builder that gathered and
// sorted (value, label) pairs at every node, and may only change in a
// commit that says it changes trained models.
package ml_test

import (
	"fmt"
	"hash/fnv"
	"io"
	"math"
	"testing"

	backscatter "dnsbackscatter"
	"dnsbackscatter/internal/classify"
	"dnsbackscatter/internal/golden"
	"dnsbackscatter/internal/ml"
	"dnsbackscatter/internal/rng"
)

// checkPins compares one FNV-1a digest per trainer, over every node
// (feature, threshold bits, label) and every importance bit, with the
// manifest's forest/name/ pins.
func checkPins(t *testing.T, name string, d *ml.Dataset) {
	t.Helper()
	pin := func(trainer string, write func(h io.Writer)) {
		h := fnv.New64a()
		write(h)
		golden.Digest(t, "forest/"+name+"/"+trainer, fmt.Sprintf("%#x", h.Sum64()))
	}
	pin("cart", func(h io.Writer) {
		ml.WriteTree(h, ml.CART{Config: ml.CARTConfig{MaxDepth: 12}}.TrainTree(d, rng.New(11)))
	})
	pin("forest", func(h io.Writer) {
		ml.WriteForest(h, ml.Forest{Config: ml.ForestConfig{Trees: 60}}.TrainForest(d, rng.New(12)))
	})
	pin("validate", func(h io.Writer) {
		v := ml.Validator{Trainer: ml.Forest{Config: ml.ForestConfig{Trees: 60}}, TrainFrac: 0.6, Runs: 5}.Run(d, rng.New(13))
		ml.WriteFloats(h, v.Accuracy.Mean, v.Accuracy.Std, v.Precision.Mean, v.Precision.Std,
			v.Recall.Mean, v.Recall.Std, v.F1.Mean, v.F1.Std)
	})
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
	}{
		{"m-ditl-0.3", mditl(t, 0.3, 30)},
		{"m-ditl-2", mditl(t, 2, 250)},
		{"random-3", ml.RandomDataset(3)},
		{"random-8", ml.RandomDataset(8)},
	} {
		checkPins(t, tc.name, tc.d)
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
