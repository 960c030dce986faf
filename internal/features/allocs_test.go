// Under the race detector sync.Pool drops a share of what is put back,
// so Extract's pooled scratch is reallocated at random: this file builds
// only without it.

//go:build !race

package features

import (
	"fmt"
	"testing"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/simtime"
)

// Extract's allocations once its scratch is warm: perCall for the three
// stages' closures and the returned slice, perVector for each vector,
// and, for each stage that runs on w > 1 goroutines, perFanOut for
// parallel.Pool.Each's shared cursor, flags and wait group plus one
// closure a goroutine. None grows with the records of an interval.
const (
	perCall   = 12
	perVector = 1
	perFanOut = 6
)

// fanOut is the allocations of one stage run on w goroutines.
func fanOut(w int) int {
	if w <= 1 {
		return 0
	}
	return perFanOut + w
}

// TestExtractAllocs holds Extract, and vecScratch.summarize under it, to
// its bound with one and with four originators, at 200 and at 400
// queriers each: twice the records must not cost one allocation more.
// Workers is pinned, since AllocsPerRun measures at GOMAXPROCS 1, where
// Workers 0 would take the sequential path on every machine; at 4 the
// dedup and filter stages fan out over 4 goroutines and extract over one
// a vector, up to 4. AllocsPerRun warms up once and reports whole
// allocations per run averaged over 1000 runs, so the odd refill of a
// pool after a GC cannot fail a correct call, and a fmt.Sprint per call
// or per vector can.
func TestExtractAllocs(t *testing.T) {
	for _, workers := range []int{1, 4} {
		for _, origs := range []int{1, 4} {
			for _, queriers := range []int{200, 400} {
				t.Run(fmt.Sprintf("workers=%d/originators=%d/queriers=%d", workers, origs, queriers), func(t *testing.T) {
					var recs []dnslog.Record
					for o := range origs {
						recs = append(recs, mkRecs(fmt.Sprintf("%d.1.1.1", o+1), queriers, 3)...)
					}
					x := newTestExtractor()
					x.Workers = workers
					vecs := len(x.Extract(recs, 0, simtime.Day))
					if vecs != origs {
						t.Fatalf("%d vectors from %d originators", vecs, origs)
					}
					n := testing.AllocsPerRun(1000, func() { x.Extract(recs, 0, simtime.Day) })
					want := perCall + perVector*vecs + 2*fanOut(min(workers, Shards)) + fanOut(min(workers, vecs))
					if n > float64(want) {
						t.Errorf("Extract of %d records makes %.0f allocations, want at most %d", len(recs), n, want)
					}
				})
			}
		}
	}
}
