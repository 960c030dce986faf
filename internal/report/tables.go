package report

import (
	"fmt"

	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/simtime"
)

// forwardRatio estimates total query volume from reverse volume per
// authority, matching the all/reverse ratios of the paper's Table I
// (JP ≈ 13x, B-Root ≈ 72x, M-Root ≈ 138x).
func forwardRatio(authority string) float64 {
	switch authority {
	case "jp":
		return 13
	case "b-root":
		return 72
	default:
		return 138
	}
}

// Table1 regenerates the dataset catalog.
func Table1(s *Store) Result {
	t := &Table{Keys: 2, Header: []string{"type", "dataset", "operator", "start (UTC)", "duration", "sampling", "queries(all,est)", "(reverse)", "qps(rev)"}}
	for _, spec := range []backscatter.DatasetSpec{
		backscatter.JPDitl(), backscatter.BPostDitl(), backscatter.BLong(),
		backscatter.BMultiYear(), backscatter.MDitl(), backscatter.MDitl2015(),
		backscatter.MSampled(),
	} {
		d := s.Get(spec)
		rev := d.ReverseQueries()
		typ := "root"
		op := "B-Root"
		switch spec.Authority {
		case "jp":
			typ, op = "ccTLD", "JP-DNS"
		case "m-root":
			op = "M-Root"
		}
		sampling := "no"
		if spec.Sample > 1 {
			sampling = fmt.Sprintf("1:%d", spec.Sample)
		}
		secs := float64(spec.Duration)
		t.row(str(typ), str(spec.Name), str(op), str(spec.Start.String()), str(fmtDur(spec.Duration)), str(sampling),
			Cell{float64(rev) * forwardRatio(spec.Authority), "%.2e"}, Cell{float64(rev), "%.2e"}, Cell{float64(rev) / secs, "%.3f"})
	}
	return tableResult("Table I: DNS datasets (simulated; volumes at simulation scale)", t)
}

func fmtDur(d simtime.Duration) string {
	switch {
	case d%simtime.Day == 0 && d >= 30*simtime.Day:
		return fmt.Sprintf("%.1f months", float64(d)/float64(30*simtime.Day))
	case d%simtime.Day == 0:
		return fmt.Sprintf("%d days", d/simtime.Day)
	default:
		return fmt.Sprintf("%d hours", d/simtime.Hour)
	}
}

// Table2 regenerates the dynamic-feature case studies.
func Table2(s *Store) Result {
	d := s.Get(backscatter.JPDitl())
	t := &Table{Keys: 1, Header: []string{"case", "queries/querier", "global entropy", "local entropy", "queriers/country"}}
	for _, cs := range caseStudies(d) {
		v, ok := d.Whole().Vector(cs.addr)
		if !ok {
			continue
		}
		t.row(str(cs.name),
			Cell{v.Dynamic(features.DynQueriesPerQuerier), "%.1f"},
			Cell{v.Dynamic(features.DynGlobalEntropy), "%.2f"},
			Cell{v.Dynamic(features.DynLocalEntropy), "%.2f"},
			Cell{v.Dynamic(features.DynQueriersPerCountry), "%.4f"})
	}
	return tableResult("Table II: dynamic features for case studies (Dataset: JP-ditl)", t)
}

// Table3 regenerates the validation table: datasets × algorithms.
func Table3(s *Store) Result {
	runs := 15
	if s.Heavy {
		runs = 50
	}
	t := &Table{Keys: 2, Header: []string{"dataset", "algorithm", "accuracy", "precision", "recall", "F1-score"}}
	for _, spec := range []backscatter.DatasetSpec{
		backscatter.JPDitl(), backscatter.BPostDitl(), backscatter.MDitl(), backscatter.MSampled(),
	} {
		d := s.Get(spec)
		for _, alg := range []backscatter.Algorithm{backscatter.AlgCART, backscatter.AlgRandomForest, backscatter.AlgSVM} {
			res, err := d.Validate(alg, 0.6, runs)
			if err != nil {
				t.row(str(spec.Name), str(alg.String()), Cell{err.Error(), "(untrainable: %s)"})
				continue
			}
			t.row(str(spec.Name), str(alg.String()),
				meanStd(res.Accuracy), meanStd(res.Precision), meanStd(res.Recall), meanStd(res.F1))
		}
	}
	return tableResult(fmt.Sprintf("Table III: validation against labeled ground truth (%d runs, 60/40 splits)", runs), t)
}

// Table4 regenerates the discriminative-feature ranking.
func Table4(s *Store) Result {
	jpN, jpV, err1 := s.Get(backscatter.JPDitl()).FeatureImportance(6)
	mN, mV, err2 := s.Get(backscatter.MDitl()).FeatureImportance(6)
	if err1 != nil || err2 != nil {
		return untrainable("Table IV", fmt.Sprintf("untrainable: %v %v", err1, err2))
	}
	t := &Table{Keys: 1,
		Header: []string{"rank", "JP-ditl feature", "importance", "M-ditl feature", "importance"},
		Cols:   []string{"", "", "JP-ditl importance", "", "M-ditl importance"}}
	for i := 0; i < 6; i++ {
		t.row(Cell{i + 1, "%d"}, str(jpN[i]), Cell{jpV[i], "%.3f"}, str(mN[i]), Cell{mV[i], "%.3f"})
	}
	return tableResult("Table IV: top discriminative features (classifier: RF, Gini importance)", t)
}

// classifyWhole trains the preferred classifier and labels the whole span.
func classifyWhole(d *backscatter.Dataset) (map[backscatter.Addr]backscatter.Class, error) {
	m, err := d.TrainClassifier(1)
	if err != nil {
		return nil, err
	}
	return m.ClassifyAll(d.Whole()), nil
}

// cumulativeClasses unions weekly classifications by per-originator
// majority vote — the paper's M-sampled counting.
func cumulativeClasses(d *backscatter.Dataset) map[backscatter.Addr]backscatter.Class {
	weekly := d.ClassifyIntervals()
	votes := make(map[backscatter.Addr][activity.NumClasses]int)
	for _, wk := range weekly {
		for a, c := range wk {
			v := votes[a]
			v[c]++
			votes[a] = v
		}
	}
	out := make(map[backscatter.Addr]backscatter.Class, len(votes))
	for a, v := range votes {
		best, bestN := 0, -1
		for cls, n := range v {
			if n > bestN {
				best, bestN = cls, n
			}
		}
		out[a] = activity.Class(best)
	}
	return out
}

// Table5 regenerates per-class originator counts for all datasets.
func Table5(s *Store) Result {
	return classCounts(s, "Table V: number of originators in each class (classifier: RF)", "data",
		func(d *backscatter.Dataset) ([activity.NumClasses]int, error) {
			if d.Spec.Name == "M-sampled" {
				return backscatter.ClassCounts(cumulativeClasses(d)), nil
			}
			classes, err := classifyWhole(d)
			return backscatter.ClassCounts(classes), err
		})
}

// Table6 regenerates the labeled ground-truth sizes.
func Table6(s *Store) Result {
	return classCounts(s, "Table VI: labeled ground-truth examples per class", "dataset",
		func(d *backscatter.Dataset) ([activity.NumClasses]int, error) { return d.Labels.Counts(), nil })
}

// classCounts tabulates count's per-class counts and their total for the
// four classified datasets.
func classCounts(s *Store, title, first string, count func(*backscatter.Dataset) ([activity.NumClasses]int, error)) Result {
	t := &Table{Keys: 1, Header: classHeader(first, "total")}
	for _, spec := range []backscatter.DatasetSpec{
		backscatter.JPDitl(), backscatter.BPostDitl(), backscatter.MDitl(), backscatter.MSampled(),
	} {
		counts, err := count(s.Get(spec))
		if err != nil {
			t.row(str(spec.Name), str("(untrainable)"))
			continue
		}
		row := []Cell{str(spec.Name)}
		total := 0
		for _, n := range counts {
			row = append(row, Cell{n, "%d"})
			total += n
		}
		t.row(append(row, Cell{total, "%d"})...)
	}
	return tableResult(title, t)
}

// topOriginators regenerates Table VII/VIII for a dataset.
func topOriginators(title string, d *backscatter.Dataset, n int) Result {
	classes, err := classifyWhole(d)
	if err != nil {
		return untrainable(title, fmt.Sprintf("untrainable: %v", err))
	}
	t := &Table{Keys: 1, Header: []string{"rank", "originator", "queriers", "TTL", "DarkIP", "BLS", "BLO", "class", "truth"}}
	vs := d.Whole().Vectors
	if n > len(vs) {
		n = len(vs)
	}
	for i := 0; i < n; i++ {
		v := vs[i]
		ev := d.OriginatorEvidence(v.Originator)
		cls := classes[v.Originator]
		truth := "-"
		if tr, ok := d.World.Truth(v.Originator); ok {
			truth = tr.Class.String()
			if tr.Port != "" {
				truth += "/" + tr.Port
			}
		}
		t.row(Cell{i + 1, "%d"}, str(v.Originator.String()), Cell{v.Queriers, "%d"},
			str(ttlFlavor(d.World.ProfileOf(v.Originator))),
			Cell{ev.DarknetHits, "%d"}, Cell{ev.SpamLists, "%d"}, Cell{ev.OtherLists, "%d"},
			str(cls.String()), str(truth))
	}
	return tableResult(title, t)
}

// ttlFlavor renders the TTL column of Tables VII/VIII: a duration, a
// dagger-style negative-cache marker, or F for unreachable.
func ttlFlavor(p dnssim.OriginatorProfile) string {
	switch {
	case p.FinalUnreachable:
		return "F"
	case !p.HasName:
		return "neg:" + fmtTTL(p.NegTTL)
	default:
		return fmtTTL(p.TTL)
	}
}

func fmtTTL(d simtime.Duration) string {
	switch {
	case d >= simtime.Day:
		return fmt.Sprintf("%dd", d/simtime.Day)
	case d >= simtime.Hour:
		return fmt.Sprintf("%dh", d/simtime.Hour)
	default:
		return fmt.Sprintf("%dm", d/simtime.Minute)
	}
}

// Table7 regenerates the top JP-ditl originators.
func Table7(s *Store) Result {
	return topOriginators("Table VII: most prolific originators (Dataset: JP-ditl)", s.Get(backscatter.JPDitl()), 30)
}

// Table8 regenerates the top M-ditl originators.
func Table8(s *Store) Result {
	return topOriginators("Table VIII: most prolific originators (Dataset: M-ditl)", s.Get(backscatter.MDitl()), 30)
}

// Teams regenerates the §VI-B coordinated-scanner analysis.
func Teams(s *Store) Result {
	d := s.Get(backscatter.MSampled())
	classes := cumulativeClasses(d)
	st := backscatter.ScannerTeams(classes, 4)
	t := &Table{Keys: 1}
	t.row(str("unique scan originators"), Cell{st.UniqueScanners, "%d"})
	t.row(str("distinct /24 blocks with scanners"), Cell{st.Blocks, "%d"})
	t.row(str("blocks with ≥4 originators"), Cell{st.BlocksWithNPlus, "%d"})
	t.row(str("  all same class (likely teams)"), Cell{st.SameClassBlocks, "%d"})
	t.row(str("  mixed classes"), Cell{st.MixedClassBlocks, "%d"})

	// Compare against planted ground-truth teams.
	planted := make(map[int]int)
	for _, tr := range d.World.TruthMap() {
		if tr.Team != 0 {
			planted[tr.Team]++
		}
	}
	big := 0
	for _, n := range planted {
		if n >= 4 {
			big++
		}
	}
	t.row(str("planted teams with ≥4 members (truth)"), Cell{big, "%d"})
	return tableResult("Scanner teams by /24 block (§VI-B, Dataset: M-sampled)", t)
}

// caseStudy identifies a named exemplar originator.
type caseStudy struct {
	name string
	addr backscatter.Addr
}

// caseStudies picks the six case-study originators of §IV-A from a
// dataset: two scanners (preferring icmp and ssh, falling back to the two
// largest scanners of any port), an ad-tracker, a cdn, a mail server, and
// a spammer — each the largest of its kind.
func caseStudies(d *backscatter.Dataset) []caseStudy {
	var out []caseStudy
	taken := map[backscatter.Addr]bool{}
	add := func(name string, cls backscatter.Class, port string) bool {
		for _, v := range d.Whole().Vectors {
			tr, ok := d.World.Truth(v.Originator)
			if !ok || tr.Class != cls || taken[v.Originator] {
				continue
			}
			if port != "" && tr.Port != port {
				continue
			}
			if name == "" {
				name = "scan-" + tr.Port
			}
			taken[v.Originator] = true
			out = append(out, caseStudy{name: name, addr: v.Originator})
			return true
		}
		return false
	}
	if !add("scan-icmp", backscatter.Scan, "icmp") {
		add("", backscatter.Scan, "")
	}
	if !add("scan-ssh", backscatter.Scan, "tcp22") {
		add("", backscatter.Scan, "")
	}
	add("ad-track", backscatter.AdTracker, "")
	add("cdn", backscatter.CDN, "")
	add("mail", backscatter.Mail, "")
	add("spam", backscatter.Spam, "")
	return out
}
