package backscatter

import (
	"sort"

	"dnsbackscatter/internal/stream"
)

// Streaming engine vocabulary, re-exported like the rest of the core
// types so users never import internal packages.
type (
	// StreamEngine is the bounded-memory streaming classification
	// engine: sliding dedup, per-originator sketches, hierarchical
	// heavy hitters, and epoch re-scoring. See internal/stream's
	// package documentation for the determinism contract.
	StreamEngine = stream.Engine
	// StreamStatus is one point-in-time engine summary.
	StreamStatus = stream.Status
	// StreamScorer scores an epoch's vectors in one call; *Model does.
	StreamScorer = stream.Scorer
)

// StreamSpec sizes a streaming engine. The zero value takes the engine
// defaults; NewStream fills cadence and parallelism from the dataset's
// own spec so a stream over a dataset re-scores on the dataset's
// observation interval with the dataset's worker budget.
type StreamSpec struct {
	// Epoch is the re-scoring cadence (default: the dataset's Interval,
	// or the engine's 1 h default when the dataset has none).
	Epoch Duration
	// SampleK is the bottom-k querier sample size per originator
	// (default 256).
	SampleK int
	// MaxOriginators bounds tracked sketch state (default 1 << 16).
	MaxOriginators int
	// HHHCapacity is the per-level heavy-hitter slot budget
	// (default 1024).
	HHHCapacity int
	// Workers overrides the dataset's worker budget when > 0.
	Workers int
}

// DefaultStreamSpec returns the spec NewStream assumes for zero fields,
// spelled out for callers that want to tweak one knob.
func DefaultStreamSpec() StreamSpec {
	return StreamSpec{
		Epoch:          Duration(3600),
		SampleK:        256,
		MaxOriginators: 1 << 16,
		HHHCapacity:    1024,
	}
}

// NewStream returns a streaming engine wired to this dataset's geo
// registry, querier-category source, analyzability threshold, seed, and
// observability sinks. scorer may be a trained *Model or nil (sketches
// without verdicts). Feed records with Ingest; epoch boundaries re-score
// automatically and Tick forces a final score. The engine reads a
// querier's name category once, when the querier enters an originator's
// sample, so it must be fed after the world is built: World.QuerierCategory
// is a pure function of the address from then on (stream.Config.CategoryOf).
func (d *Dataset) NewStream(spec StreamSpec, scorer StreamScorer) *StreamEngine {
	if spec.Epoch == 0 {
		spec.Epoch = d.Spec.Interval
	}
	workers := spec.Workers
	if workers == 0 {
		workers = d.Spec.Workers
	}
	return stream.New(stream.Config{
		Geo:            d.World.Geo,
		CategoryOf:     d.World.QuerierCategory,
		Scorer:         scorer,
		MinQueriers:    d.Extractor.MinQueriers,
		Epoch:          spec.Epoch,
		SampleK:        spec.SampleK,
		MaxOriginators: spec.MaxOriginators,
		HHHCapacity:    spec.HHHCapacity,
		Seed:           d.Spec.Seed,
		Workers:        workers,
		Obs:            d.obs,
		Acct:           d.acct,
	})
}

// ClassDelta compares batch and stream accuracy for one class, both
// scored against the world's ground truth.
type ClassDelta struct {
	Class           string  `json:"class"`
	Support         int     `json:"support"` // true members among verdicts
	BatchPrecision  float64 `json:"batch_precision"`
	StreamPrecision float64 `json:"stream_precision"`
	BatchRecall     float64 `json:"batch_recall"`
	StreamRecall    float64 `json:"stream_recall"`
	PrecisionDelta  float64 `json:"precision_delta"` // stream − batch
	RecallDelta     float64 `json:"recall_delta"`
}

// StreamComparison is the result of replaying a dataset through the
// streaming engine and scoring both paths against ground truth — the
// approximation cost of sketched features in one report.
type StreamComparison struct {
	BatchVerdicts  int `json:"batch_verdicts"`
	StreamVerdicts int `json:"stream_verdicts"`
	// Agreement is the fraction of originators classified by both paths
	// that received the same verdict.
	Agreement float64      `json:"agreement"`
	PerClass  []ClassDelta `json:"per_class"`
}

// CompareStream replays the dataset's records through a streaming engine
// driven by model, classifies the batch path with the same model, and
// scores both against ground truth. The result is deterministic for a
// given dataset, spec, and model at any worker count.
func (d *Dataset) CompareStream(spec StreamSpec, model *Model) StreamComparison {
	batch := model.ClassifyAll(d.Whole())

	e := d.NewStream(spec, model)
	const chunk = 8192
	for i := 0; i < len(d.Records); i += chunk {
		j := min(i+chunk, len(d.Records))
		e.Ingest(d.Records[i:j])
	}
	e.Tick(d.Spec.Start.Add(d.Spec.Duration))
	streamed := e.Verdicts()

	truth := d.TruthMap()
	score := func(verdicts map[Addr]Class) map[Class]classScore {
		out := make(map[Class]classScore)
		for a, pred := range verdicts {
			tr, ok := truth[a]
			if !ok {
				continue
			}
			sp := out[pred]
			sp.predicted++
			if tr == pred {
				sp.tp++
			}
			out[pred] = sp
			st := out[tr]
			st.support++
			out[tr] = st
		}
		return out
	}
	bs, ss := score(batch), score(streamed)

	var agree, both int
	for a, c := range streamed {
		if bc, ok := batch[a]; ok {
			both++
			if bc == c {
				agree++
			}
		}
	}
	cmp := StreamComparison{BatchVerdicts: len(batch), StreamVerdicts: len(streamed)}
	if both > 0 {
		cmp.Agreement = float64(agree) / float64(both)
	}

	for c := Class(0); c < NumClasses; c++ {
		b, s := bs[c], ss[c]
		if b.support == 0 && s.support == 0 && b.predicted == 0 && s.predicted == 0 {
			continue
		}
		d := ClassDelta{
			Class:           c.String(),
			Support:         s.support,
			BatchPrecision:  b.precision(),
			StreamPrecision: s.precision(),
			BatchRecall:     b.recall(),
			StreamRecall:    s.recall(),
		}
		d.PrecisionDelta = d.StreamPrecision - d.BatchPrecision
		d.RecallDelta = d.StreamRecall - d.BatchRecall
		cmp.PerClass = append(cmp.PerClass, d)
	}
	sort.Slice(cmp.PerClass, func(i, j int) bool {
		return cmp.PerClass[i].Class < cmp.PerClass[j].Class
	})
	return cmp
}

// classScore accumulates one class's tp/predicted/support tallies.
type classScore struct{ tp, predicted, support int }

func (s classScore) precision() float64 {
	if s.predicted == 0 {
		return 0
	}
	return float64(s.tp) / float64(s.predicted)
}

func (s classScore) recall() float64 {
	if s.support == 0 {
		return 0
	}
	return float64(s.tp) / float64(s.support)
}
