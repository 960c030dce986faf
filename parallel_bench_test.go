// Parallel-stage benchmarks: the same extract/train/classify work at
// worker counts 1 and 8, so a bench run shows the speedup (or, on a
// single-core runner, the overhead bound) of the sharded pipeline.
//
// The dataset is built once outside the timed region; each benchmark
// times exactly one pipeline stage.
package backscatter_test

import (
	"fmt"
	"sync"
	"testing"

	backscatter "dnsbackscatter"
)

var (
	parOnce sync.Once
	parDS   *backscatter.Dataset
)

// parDataset builds the benchmark dataset once: JP-ditl at half scale,
// analyzable at MinQueriers 10 so extract and train see real work.
func parDataset(b *testing.B) *backscatter.Dataset {
	b.Helper()
	parOnce.Do(func() {
		spec := backscatter.JPDitl().Scaled(0.5)
		spec.MinQueriers = 10
		parDS = backscatter.Build(spec)
	})
	return parDS
}

var parWorkerCounts = []int{1, 8}

func BenchmarkParallelExtract(b *testing.B) {
	ds := parDataset(b)
	for _, w := range parWorkerCounts {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			ds.Extractor.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds.Extractor.Extract(ds.Records, ds.Spec.Start, ds.Spec.Duration)
			}
		})
	}
	ds.Extractor.Workers = 0
}

// BenchmarkProfOverhead times the extract stage with resource
// accounting detached and attached. The off case is the acceptance
// bound — a nil accountant must cost nothing on the hot path (one nil
// check, no allocations), so its B/op must match BenchmarkParallelExtract
// exactly — while the on case prices the per-stage ReadMemStats pair
// and the pool's worker accounting.
func BenchmarkProfOverhead(b *testing.B) {
	ds := parDataset(b)
	ds.Extractor.Workers = 8
	for _, mode := range []struct {
		name string
		acct *backscatter.Accountant
	}{
		{"off", nil},
		{"on", backscatter.NewAccountant()},
	} {
		b.Run(mode.name, func(b *testing.B) {
			ds.Extractor.Acct = mode.acct
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ds.Extractor.Extract(ds.Records, ds.Spec.Start, ds.Spec.Duration)
			}
		})
	}
	ds.Extractor.Acct = nil
	ds.Extractor.Workers = 0
}

func BenchmarkParallelTrain(b *testing.B) {
	ds := parDataset(b)
	for _, w := range parWorkerCounts {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			ds.Spec.Workers = w
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := ds.TrainWith(backscatter.AlgRandomForest, 1, ds.Labels); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
	ds.Spec.Workers = 0
}

func BenchmarkParallelClassify(b *testing.B) {
	ds := parDataset(b)
	for _, w := range parWorkerCounts {
		b.Run(fmt.Sprintf("w%d", w), func(b *testing.B) {
			ds.Spec.Workers = w
			model, err := ds.TrainWith(backscatter.AlgRandomForest, 1, ds.Labels)
			if err != nil {
				b.Fatal(err)
			}
			whole := ds.Whole()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				model.ClassifyAll(whole)
			}
		})
	}
	ds.Spec.Workers = 0
}
