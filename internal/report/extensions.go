package report

import (
	"fmt"
	"math"

	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/classify"
	"dnsbackscatter/internal/ml"
)

// ExtensionQMin measures how QNAME minimization (RFC 7816) erodes the
// sensor, an effect the paper's §VII anticipates: minimized lookups never
// reveal the originator to root or national authorities, so as deployment
// grows, both the visible signal and classification accuracy at upper
// sensors decay. Only the final authority keeps full visibility.
func ExtensionQMin(s *Store) Result {
	t := &Table{Keys: 1, Header: []string{"qmin deployment", "reverse queries", "analyzable originators", "accuracy", "F1"}}
	for _, frac := range []float64{0, 0.25, 0.5, 0.75} {
		spec := backscatter.MDitl().Scaled(s.Scale)
		spec.Name = fmt.Sprintf("M-ditl-qmin-%.0f", frac*100)
		spec.QMinFraction = frac
		d := backscatter.Build(spec)
		snap := d.Whole()
		p := classify.NewPipeline()
		ds, _, err := p.TrainingSet(snap, d.Labels)
		row := []Cell{{frac * 100, "%.0f%%"}, {d.ReverseQueries(), "%d"}, {len(snap.Vectors), "%d"}}
		if err != nil {
			t.row(append(row, str("(untrainable)"))...)
			continue
		}
		t.row(append(row, cvCells(s, ds, 60, 29)...)...)
	}
	return tableResult("Extension: QNAME minimization vs sensor signal (Dataset: M-ditl variant)", t,
		"expected shape: signal and analyzable population shrink as deployment grows;",
		"the root sensor goes dark long before full deployment")
}

// ExtensionFusion tests the paper's §III-F suggestion that backscatter
// "will benefit from combining it with other sources of information (such
// as small darknets)": external evidence — darknet hit counts and
// blacklist listings — joins the feature vector as three extra columns.
func ExtensionFusion(s *Store) Result {
	d := s.Get(backscatter.JPDitl())
	p := classify.NewPipeline()
	base, addrs, err := p.TrainingSet(d.Whole(), d.Labels)
	if err != nil {
		return untrainable("Extension: external-evidence fusion", "untrainable")
	}

	// Fused matrix: backscatter features + log-scaled darknet hits +
	// blacklist counts.
	fx := make([][]float64, base.Len())
	for i, row := range base.X {
		ev := d.OriginatorEvidence(addrs[i])
		r := make([]float64, len(row), len(row)+3)
		copy(r, row)
		r = append(r,
			math.Log1p(float64(ev.DarknetHits))/10,
			float64(ev.SpamLists)/9,
			float64(ev.OtherLists)/9,
		)
		fx[i] = r
	}
	fused, err := ml.NewDataset(fx, base.Y, base.NumClasses)
	if err != nil {
		return untrainable("Extension: external-evidence fusion", err.Error())
	}

	t := &Table{Keys: 1, Header: []string{"features", "columns", "accuracy", "F1"}}
	for _, c := range []struct {
		name string
		ds   *ml.Dataset
	}{
		{"backscatter only (paper)", base},
		{"backscatter + external evidence", fused},
	} {
		t.row(append([]Cell{str(c.name), {c.ds.NumFeatures(), "%d"}}, cvCells(s, c.ds, 60, 31)...)...)
	}
	return tableResult("Extension: fusing darknet + blacklist evidence into the classifier (Dataset: JP-ditl)", t,
		"expected shape: external evidence helps, chiefly by separating scan from spam")
}
