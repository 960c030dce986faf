// The race detector's instrumentation compiles the stack-tally idiom in
// Predict to a heap allocation, so this file builds only without it.

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
