package backscatter

import (
	"dnsbackscatter/internal/classify"
	"dnsbackscatter/internal/groundtruth"
	"dnsbackscatter/internal/rng"
)

// TrainingStrategy is a training-over-time regime from §III-E.
type TrainingStrategy = classify.Strategy

// The paper's four strategies (§V compares the first three; the fourth is
// the M-sampled gold standard).
const (
	TrainOnce        = classify.TrainOnce
	RetrainDaily     = classify.RetrainDaily
	AutoGrow         = classify.AutoGrow
	ManualRecuration = classify.ManualRecuration
)

// StrategyPoint is one interval's outcome under a strategy (Figure 7).
type StrategyPoint = classify.StrategyPoint

// Reappearance counts labeled examples active per interval, split benign
// versus malicious (Figures 5 and 6).
type Reappearance = classify.Reappearance

// RunStrategy evaluates a training strategy across the dataset's interval
// snapshots. curationIndex is the interval at which the labeled set was
// curated; labels (nil = the dataset's whole-span curation) serve as both
// the initial training set and the fixed validation examples (the paper
// validates on re-appearing labeled examples, §V-B). recurateEvery > 0
// enables periodic expert recuration for ManualRecuration.
func (d *Dataset) RunStrategy(strat TrainingStrategy, labels *LabeledSet, curationIndex, recurateEvery int) []StrategyPoint {
	if labels == nil {
		labels = d.Labels
	}
	run := &classify.StrategyRun{
		Pipeline:      classify.NewPipeline(),
		Strategy:      strat,
		CurationIndex: curationIndex,
		RecurateEvery: recurateEvery,
		Oracle:        d.Oracle,
		Curation:      groundtruth.DefaultCuration(),
	}
	st := rng.NewSource(d.Spec.Seed).Stream("strategy-" + strat.String())
	return run.Run(d.Snapshots, labels, labels, st)
}

// CurateAt builds a labeled set from the originators analyzable in the
// given interval snapshot, using the dataset's oracle — fresh expert
// curation at a point in time.
func (d *Dataset) CurateAt(interval int) *LabeledSet {
	st := rng.NewSource(d.Spec.Seed).Stream("curate-at")
	return groundtruth.Curate(d.Snapshots[interval].Ranked(), d.Oracle, groundtruth.DefaultCuration(), st)
}

// Reappearances counts the examples of a labeled set active per interval
// (Figures 5 and 6). A nil labels counts d.Labels.
func (d *Dataset) Reappearances(labels *LabeledSet) []Reappearance {
	if labels == nil {
		labels = d.Labels
	}
	return classify.CountReappearances(d.Snapshots, labels)
}

// ClassifyIntervals labels every analyzable originator in each interval,
// returning one classification map per interval — the input to Churn,
// ConsistencyCDF, and the trend analyses.
//
// It follows the paper's M-sampled recipe (§III-E / §V-E): a single
// labeled dataset built from expert curations at three dates about a
// third of the span apart, merged, then retrained on each interval's
// fresh feature vectors. Intervals whose retraining fails fall back to
// the last good model, as an operator would.
func (d *Dataset) ClassifyIntervals() []map[Addr]Class {
	st := rng.NewSource(d.Spec.Seed).Stream("classify-intervals")

	labels := d.Labels.Clone()
	n := len(d.Snapshots)
	if n >= 3 {
		cur := groundtruth.DefaultCuration()
		for _, i := range []int{0, n / 3, 2 * n / 3} {
			labels.Merge(groundtruth.Curate(d.Snapshots[i].Ranked(), d.Oracle, cur, st))
		}
	}

	// A weekly model trained on only a couple of classes floods its few
	// labels over everything; prefer strict class coverage, but relax for
	// small datasets where nothing clears the strict bar.
	for _, strict := range []struct{ classes, perClass int }{{5, 4}, {2, 2}} {
		p := classify.NewPipeline()
		p.MinClasses = strict.classes
		p.MinPerClass = strict.perClass

		out := make([]map[Addr]Class, len(d.Snapshots))
		var model *Model
		trained := false
		for i, s := range d.Snapshots {
			if m, err := p.Train(s, labels, st); err == nil {
				model = m
				trained = true
			}
			if model != nil {
				out[i] = model.ClassifyAll(s)
			}
		}
		if trained {
			return out
		}
	}
	return make([]map[Addr]Class, len(d.Snapshots))
}
