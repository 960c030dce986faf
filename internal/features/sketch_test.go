package features_test

import (
	"math"
	"testing"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/stream"
)

// batchAndStream extracts recs exactly (Extractor) and through the
// streaming engine's sketches (SketchStats → NormsFromStats →
// SketchVector) over one day, both at a 10-querier threshold.
func batchAndStream(recs []dnslog.Record) (batch, sketched []*features.Vector) {
	g := geo.NewRegistry(42)
	x := features.NewExtractor(g, features.SyntheticCategories)
	x.MinQueriers = 10
	e := stream.New(stream.Config{Geo: g, CategoryOf: features.SyntheticCategories, MinQueriers: 10, Epoch: simtime.Day})
	e.Ingest(recs)
	e.Tick(simtime.Time(simtime.Day))
	return x.Extract(recs, 0, simtime.Day), e.Vectors()
}

func TestStreamMatchesBatchFootprints(t *testing.T) {
	bv, sv := batchAndStream(append(features.MkRecs("1.2.3.4", 500, 2), features.MkRecs("5.6.7.8", 80, 3)...))
	if len(bv) != len(sv) {
		t.Fatalf("batch %d vs stream %d vectors", len(bv), len(sv))
	}
	for i := range bv {
		if bv[i].Originator != sv[i].Originator {
			t.Fatalf("vector %d: originator order differs", i)
		}
		rel := math.Abs(float64(sv[i].Queriers-bv[i].Queriers)) / float64(bv[i].Queriers)
		if rel > 0.10 {
			t.Errorf("originator %v: footprint %d vs exact %d (%.1f%% off)",
				bv[i].Originator, sv[i].Queriers, bv[i].Queriers, 100*rel)
		}
		if sv[i].Queries != bv[i].Queries {
			t.Errorf("query counts differ: %d vs %d", sv[i].Queries, bv[i].Queries)
		}
	}
}

func TestStreamStaticFractionsApproximate(t *testing.T) {
	bvs, svs := batchAndStream(features.MkRecs("1.2.3.4", 400, 1))
	if len(bvs) != 1 || len(svs) != 1 {
		t.Fatalf("batch %d vs stream %d vectors, want one each", len(bvs), len(svs))
	}
	bv, sv := bvs[0], svs[0]
	for i := 0; i < features.NumStatic; i++ {
		if math.Abs(sv.X[i]-bv.X[i]) > 0.12 {
			t.Errorf("static %d: stream %.2f vs batch %.2f", i, sv.X[i], bv.X[i])
		}
	}
	// Entropies from the sample should track the exact values.
	if math.Abs(sv.Dynamic(features.DynGlobalEntropy)-bv.Dynamic(features.DynGlobalEntropy)) > 0.15 {
		t.Errorf("global entropy: stream %.2f vs batch %.2f",
			sv.Dynamic(features.DynGlobalEntropy), bv.Dynamic(features.DynGlobalEntropy))
	}
}
