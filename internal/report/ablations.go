package report

import (
	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/classify"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/ml"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

// ablationRuns is the CV repetition count for ablation studies.
func ablationRuns(s *Store) int {
	if s.Heavy {
		return 20
	}
	return 8
}

// cvCells cross-validates a forest on a design matrix and returns its
// accuracy and F1 cells.
func cvCells(s *Store, ds *ml.Dataset, trees int, seed uint64) []Cell {
	tr := ml.Forest{Config: ml.ForestConfig{Trees: trees}}
	res := ml.CrossValidate(tr, ds, 0.6, ablationRuns(s), rng.New(seed))
	return []Cell{meanStd(res.Accuracy), meanStd(res.F1)}
}

// AblationDedup varies the 30 s deduplication window (§III-C) and measures
// its effect on the rate features and accuracy.
func AblationDedup(s *Store) Result {
	d := s.Get(backscatter.JPDitl())
	t := &Table{Keys: 1, Header: []string{"window", "analyzable", "mean queries/querier", "accuracy", "F1"}}
	for _, win := range []simtime.Duration{0, 30 * simtime.Second, 300 * simtime.Second} {
		x := features.NewExtractor(d.World.Geo, d.World.QuerierName)
		x.MinQueriers = d.Extractor.MinQueriers
		x.DedupWindow = win
		snap := classify.Snap(d.Records, x, d.Spec.Start, d.Spec.Duration)
		qpq := 0.0
		for _, v := range snap.Vectors {
			qpq += v.Dynamic(features.DynQueriesPerQuerier)
		}
		if len(snap.Vectors) > 0 {
			qpq /= float64(len(snap.Vectors))
		}
		p := classify.NewPipeline()
		ds, _, err := p.TrainingSet(snap, d.Labels)
		row := []Cell{{int(win), "%ds"}, {len(snap.Vectors), "%d"}, {qpq, "%.2f"}}
		if err != nil {
			t.row(append(row, str("(untrainable)"))...)
			continue
		}
		t.row(append(row, cvCells(s, ds, 60, 11)...)...)
	}
	return tableResult("Ablation: per-(originator, querier) dedup window (Dataset: JP-ditl)", t)
}

// AblationThreshold varies the ≥20-querier analyzability threshold (§III-B).
func AblationThreshold(s *Store) Result {
	d := s.Get(backscatter.JPDitl())
	t := &Table{Keys: 1, Header: []string{"min queriers", "analyzable", "accuracy", "F1"}}
	for _, min := range []int{5, 10, 20, 50} {
		x := features.NewExtractor(d.World.Geo, d.World.QuerierName)
		x.MinQueriers = min
		snap := classify.Snap(d.Records, x, d.Spec.Start, d.Spec.Duration)
		p := classify.NewPipeline()
		ds, _, err := p.TrainingSet(snap, d.Labels)
		row := []Cell{{min, "%d"}, {len(snap.Vectors), "%d"}}
		if err != nil {
			t.row(append(row, str("(untrainable)"))...)
			continue
		}
		t.row(append(row, cvCells(s, ds, 60, 13)...)...)
	}
	return tableResult("Ablation: analyzability threshold (min queriers per originator; Dataset: JP-ditl)", t,
		"expected shape: lower thresholds admit more, noisier originators (§V-E)")
}

// maskDataset zeroes a column range, removing those features from play
// without changing the matrix shape.
func maskDataset(ds *ml.Dataset, lo, hi int) *ml.Dataset {
	x := make([][]float64, ds.Len())
	for i, row := range ds.X {
		r := append([]float64(nil), row...)
		for j := lo; j < hi && j < len(r); j++ {
			r[j] = 0
		}
		x[i] = r
	}
	out, err := ml.NewDataset(x, ds.Y, ds.NumClasses)
	if err != nil {
		panic(err) // masking preserves validity by construction
	}
	return out
}

// AblationFeatures compares static-only, dynamic-only, and combined
// feature sets.
func AblationFeatures(s *Store) Result {
	d := s.Get(backscatter.JPDitl())
	p := classify.NewPipeline()
	ds, _, err := p.TrainingSet(d.Whole(), d.Labels)
	if err != nil {
		return untrainable("Ablation: feature sets", "untrainable")
	}
	t := &Table{Keys: 1, Header: []string{"feature set", "columns", "accuracy", "F1"}}
	cases := []struct {
		name  string
		ds    *ml.Dataset
		ncols int
	}{
		{"combined", ds, features.NumFeatures},
		{"static only", maskDataset(ds, features.NumStatic, features.NumFeatures), features.NumStatic},
		{"dynamic only", maskDataset(ds, 0, features.NumStatic), features.NumDynamic},
	}
	for _, c := range cases {
		t.row(append([]Cell{str(c.name), {c.ncols, "%d"}}, cvCells(s, c.ds, 60, 17)...)...)
	}
	return tableResult("Ablation: static vs dynamic features (Dataset: JP-ditl)", t,
		"expected shape: combined wins; statics carry most signal (Table IV ranks mail/home/nxdomain first)")
}

// AblationForest varies Random Forest size.
func AblationForest(s *Store) Result {
	d := s.Get(backscatter.JPDitl())
	p := classify.NewPipeline()
	ds, _, err := p.TrainingSet(d.Whole(), d.Labels)
	if err != nil {
		return untrainable("Ablation: forest size", "untrainable")
	}
	t := &Table{Keys: 1, Header: []string{"trees", "accuracy", "F1"}}
	for _, trees := range []int{5, 20, 60, 150} {
		t.row(append([]Cell{{trees, "%d"}}, cvCells(s, ds, trees, 19)...)...)
	}
	return tableResult("Ablation: Random Forest size (Dataset: JP-ditl)", t,
		"expected shape: accuracy saturates by ~60 trees")
}

// classGroup maps the 12 classes onto 5 coarse groups for the
// class-merging ablation the paper alludes to ("we see higher accuracy
// with fewer application classes"). Groups follow the 12-way classifier's
// own confusion structure (§IV-C): mail/spam and scan/p2p are the natural
// confusions, so merging them is where the accuracy gain lives.
func classGroup(c activity.Class) int {
	switch c {
	case activity.Mail, activity.Spam:
		return 0 // mail-like senders
	case activity.Scan, activity.P2P:
		return 1 // probing traffic
	case activity.CDN, activity.Cloud, activity.Update:
		return 2 // content/update delivery
	case activity.AdTracker, activity.Push, activity.Crawler:
		return 3 // web-triggered services
	default: // DNSServer, NTP
		return 4 // core infrastructure
	}
}

// AblationClasses compares 12-class against merged 6-class accuracy.
func AblationClasses(s *Store) Result {
	d := s.Get(backscatter.JPDitl())
	p := classify.NewPipeline()
	ds12, _, err := p.TrainingSet(d.Whole(), d.Labels)
	if err != nil {
		return untrainable("Ablation: class merging", "untrainable")
	}
	y6 := make([]int, ds12.Len())
	for i, y := range ds12.Y {
		y6[i] = classGroup(activity.Class(y))
	}
	ds6, err := ml.NewDataset(ds12.X, y6, 5)
	if err != nil {
		return untrainable("Ablation: class merging", err.Error())
	}
	t := &Table{Keys: 1, Header: []string{"classes", "accuracy", "F1"}}
	for _, c := range []struct {
		name string
		ds   *ml.Dataset
	}{{"12 (paper's)", ds12}, {"5 (merged)", ds6}} {
		t.row(append([]Cell{str(c.name)}, cvCells(s, c.ds, 60, 23)...)...)
	}
	return tableResult("Ablation: 12 classes vs 5 merged groups (Dataset: JP-ditl)", t,
		"expected shape: fewer classes ⇒ higher accuracy, at the cost of less useful labels (§IV-C)")
}
