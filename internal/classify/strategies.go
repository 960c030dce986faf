package classify

import (
	"dnsbackscatter/internal/groundtruth"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

// Strategy selects a training-over-time regime from §III-E.
type Strategy int

const (
	// TrainOnce trains on the curation snapshot and never retrains;
	// accuracy decays as feature behavior drifts (§V-B).
	TrainOnce Strategy = iota
	// RetrainDaily keeps the labeled set fixed but refits the
	// classification boundary on each interval's fresh feature vectors
	// (§V-C) — the paper's recommended default.
	RetrainDaily
	// AutoGrow feeds each interval's classification output back as the
	// next interval's labels; classification error compounds (§V-D).
	AutoGrow
	// ManualRecuration re-runs expert curation at scheduled intervals and
	// retrains daily in between — the M-sampled gold standard (§V-E).
	ManualRecuration
)

var strategyNames = map[Strategy]string{
	TrainOnce:        "train-once",
	RetrainDaily:     "train-daily",
	AutoGrow:         "auto-grow",
	ManualRecuration: "manual-recuration",
}

// String names the strategy as Figure 7 does.
func (s Strategy) String() string {
	if n, ok := strategyNames[s]; ok {
		return n
	}
	return "unknown"
}

// StrategyPoint is one interval's outcome in a strategy run.
type StrategyPoint struct {
	Start     simtime.Time
	F1        float64
	Accuracy  float64
	Evaluated int  // labeled examples re-appearing for validation
	Trained   bool // false when training failed this interval
}

// StrategyRun drives one strategy across interval snapshots.
type StrategyRun struct {
	Pipeline *Pipeline
	Strategy Strategy
	// CurationIndex is the snapshot index at which the initial labeled
	// set was curated (the gray bar of Figures 5-7).
	CurationIndex int
	// RecurateEvery re-curates at this interval spacing (only for
	// ManualRecuration); 0 disables.
	RecurateEvery int
	// Oracle supplies labels for (re-)curation; required for
	// ManualRecuration, ignored otherwise. Recuration uses
	// groundtruth.DefaultCuration.
	Oracle *groundtruth.Oracle
}

// Run evaluates the strategy. snaps are consecutive interval snapshots;
// initial is the expert-curated labeled set (taken at CurationIndex);
// validation is the fixed set of labeled examples used to score every
// interval (the paper validates on re-appearing labeled examples).
func (r *StrategyRun) Run(snaps []*Snapshot, initial, validation *groundtruth.LabeledSet, st *rng.Stream) []StrategyPoint {
	labels := initial.Clone()
	var model *Model
	var out []StrategyPoint

	// Train-once fits exactly once, on the curation snapshot.
	if r.Strategy == TrainOnce {
		if m, err := r.Pipeline.Train(snaps[r.CurationIndex], labels, st); err == nil {
			model = m
		}
	}

	for i, s := range snaps {
		switch r.Strategy {
		case TrainOnce:
			// model fixed
		case RetrainDaily:
			if m, err := r.Pipeline.Train(s, labels, st); err == nil {
				model = m
			} else {
				model = nil
			}
		case AutoGrow:
			if m, err := r.Pipeline.Train(s, labels, st); err == nil {
				model = m
				// Tomorrow's labels are today's classifications of
				// whatever was analyzable today.
				next := &groundtruth.LabeledSet{Labels: model.ClassifyAll(s)}
				labels = next
			} else {
				model = nil
			}
		case ManualRecuration:
			if r.RecurateEvery > 0 && r.Oracle != nil && i > r.CurationIndex &&
				(i-r.CurationIndex)%r.RecurateEvery == 0 {
				fresh := groundtruth.Curate(s.Ranked(), r.Oracle, groundtruth.DefaultCuration(), st)
				labels.Merge(fresh)
				labels.Prune(func(a ipaddr.Addr) bool {
					_, ok := s.Vector(a)
					if ok {
						return true
					}
					_, keep := initial.Labels[a]
					return keep
				})
			}
			if m, err := r.Pipeline.Train(s, labels, st); err == nil {
				model = m
			} else {
				model = nil
			}
		}

		p := StrategyPoint{Start: s.Start, Trained: model != nil}
		if model != nil {
			metrics, n := model.EvaluateOn(s, validation)
			p.F1 = metrics.F1
			p.Accuracy = metrics.Accuracy
			p.Evaluated = n
		}
		out = append(out, p)
	}
	return out
}

// Reappearance counts how many labeled examples are analyzable in each
// snapshot, split by maliciousness — the data behind Figures 5 and 6.
type Reappearance struct {
	Start     simtime.Time
	Benign    int
	Malicious int
}

// CountReappearances tallies labeled-example activity per interval.
func CountReappearances(snaps []*Snapshot, labels *groundtruth.LabeledSet) []Reappearance {
	out := make([]Reappearance, len(snaps))
	for i, s := range snaps {
		out[i].Start = s.Start
		for a, cls := range labels.Labels {
			if _, ok := s.Vector(a); !ok {
				continue
			}
			if cls.Malicious() {
				out[i].Malicious++
			} else {
				out[i].Benign++
			}
		}
	}
	return out
}
