// Scratch-reuse invariance: every buffer the extraction pipeline keeps
// from one Extract call to the next — the record partition, the columnar
// shard aggregates, the interval-union and work lists — is an ops-only
// optimization. The proof is a reference the test builds itself: an
// Extractor that has already run other intervals must return, interval by
// interval, exactly what a freshly constructed one returns, and leave the
// same metrics and trace annotations behind.
package backscatter_test

import (
	"bytes"
	"reflect"
	"testing"

	backscatter "dnsbackscatter"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/obs"
)

// TestWarmExtractorMatchesFresh runs workers {1, 8} with tracing on. Two
// identical builds give two identical (registry, tracer) pairs; the first
// build's own Extractor — warm from the build's interval snapshots — then
// extracts three consecutive intervals of very different sizes (large,
// small, medium, so scratch left by a larger interval would show in the
// next), while the second build gets a new Extractor for every interval.
func TestWarmExtractorMatchesFresh(t *testing.T) {
	for _, w := range []int{1, 8} {
		build := func() (*backscatter.Dataset, *backscatter.Registry) {
			reg := backscatter.NewRegistry()
			reg.SetClock(obs.TickClock(1))
			return backscatter.BuildObserved(seedMatrixSpec(1404, w, "").WithTracing(4), reg), reg
		}
		warmDS, warmReg := build()
		freshDS, freshReg := build()
		spec := warmDS.Spec
		if warmDS.Tracer() == nil || len(warmDS.Records) == 0 {
			t.Fatalf("workers=%d: the build produced no tracer or no records", w)
		}

		cuts := []backscatter.Duration{0, spec.Duration * 6 / 10, spec.Duration * 7 / 10, spec.Duration}
		for i := 1; i < len(cuts); i++ {
			start, dur := spec.Start.Add(cuts[i-1]), cuts[i]-cuts[i-1]
			var recs []backscatter.Record
			for _, r := range warmDS.Records {
				if !r.Time.Before(start) && r.Time.Before(start.Add(dur)) {
					recs = append(recs, r)
				}
			}
			fresh := features.NewExtractor(freshDS.World.Geo, freshDS.World.QuerierCategory)
			fresh.MinQueriers, fresh.Workers = warmDS.Extractor.MinQueriers, w
			fresh.Obs, fresh.Tracer = freshReg, freshDS.Tracer()

			want := fresh.Extract(recs, start, dur)
			got := warmDS.Extractor.Extract(recs, start, dur)
			if len(want) == 0 {
				t.Fatalf("workers=%d interval %d: no analyzable originator among %d records", w, i, len(recs))
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("workers=%d interval %d (%d records): warm extractor's vectors differ from a fresh one's", w, i, len(recs))
			}
		}
		if !bytes.Equal(warmReg.SnapshotJSON(), freshReg.SnapshotJSON()) {
			t.Errorf("workers=%d: SnapshotJSON differs between warm and fresh extractors", w)
		}
		if !bytes.Equal(warmDS.Tracer().JSONL(), freshDS.Tracer().JSONL()) {
			t.Errorf("workers=%d: trace JSONL differs between warm and fresh extractors", w)
		}
	}
}
