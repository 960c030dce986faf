package report

import (
	"fmt"

	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/classify"
	"dnsbackscatter/internal/ml"
	"dnsbackscatter/internal/rng"
)

// Confusion regenerates the §IV-C error analysis the paper narrates:
// which classes mislabel, and why — sparse classes (ntp, update,
// ad-tracker, cdn) lack training data, and misbehaving p2p looks like
// scanning. It accumulates a confusion matrix over repeated 60/40 splits
// of the JP-ditl ground truth.
func Confusion(s *Store) Result {
	d := s.Get(backscatter.JPDitl())
	p := classify.NewPipeline()
	ds, _, err := p.TrainingSet(d.Whole(), d.Labels)
	if err != nil {
		return untrainable("Per-class confusion (§IV-C)", "untrainable")
	}

	runs := ablationRuns(s)
	st := rng.New(37)
	conf := ml.NewConfusion(ds.NumClasses)
	tr := ml.Forest{Config: ml.ForestConfig{Trees: 60}}
	for r := 0; r < runs; r++ {
		trainIdx, testIdx := ml.StratifiedSplit(ds, 0.6, st)
		clf := tr.Train(ds.Subset(trainIdx), st)
		for _, i := range testIdx {
			conf.Add(ds.Y[i], clf.Predict(ds.X[i]))
		}
	}

	t := &Table{Keys: 1, Header: []string{"class", "support", "precision", "recall", "F1"}}
	for _, m := range conf.PerClass() {
		t.row(str(activity.Class(m.Class).String()), Cell{m.Support, "%d"},
			Cell{m.Precision, "%.2f"}, Cell{m.Recall, "%.2f"}, Cell{m.F1, "%.2f"})
	}
	r := Result{Title: fmt.Sprintf("Per-class accuracy and confusion (§IV-C; Dataset: JP-ditl, RF, %d splits)", runs)}
	r.table(t)

	// The dominant confusions, descending.
	type pair struct{ truth, pred, n int }
	var offDiag []pair
	for i, row := range conf.Counts {
		for j, n := range row {
			if i != j && n > 0 {
				offDiag = append(offDiag, pair{i, j, n})
			}
		}
	}
	for a := 0; a < len(offDiag); a++ {
		for b := a + 1; b < len(offDiag); b++ {
			if offDiag[b].n > offDiag[a].n {
				offDiag[a], offDiag[b] = offDiag[b], offDiag[a]
			}
		}
	}
	r.text("", "top confusions (truth → predicted):")
	for i, c := range offDiag {
		if i == 6 {
			break
		}
		r.text(fmt.Sprintf("  %-11s → %-11s %d", activity.Class(c.truth), activity.Class(c.pred), c.n))
	}
	r.text("expected shape: sparse classes (ntp, update, crawler) score lowest;",
		"spam↔mail and p2p↔scan are the natural confusions (§IV-C)")
	return r
}
