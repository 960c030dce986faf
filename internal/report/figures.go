package report

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"time"

	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/simtime"
)

// Figure3 regenerates the static-feature case studies.
func Figure3(s *Store) Result {
	d := s.Get(backscatter.JPDitl())
	cats := []qname.Category{
		qname.Home, qname.Mail, qname.NS, qname.FW, qname.Antispam,
		qname.NXDomain, qname.Unreach, qname.Other,
	}
	t := &Table{Keys: 1, Header: []string{"case"}}
	for _, c := range cats {
		t.Header = append(t.Header, c.String())
	}
	for _, cs := range caseStudies(d) {
		v, ok := d.Whole().Vector(cs.addr)
		if !ok {
			continue
		}
		row := []Cell{str(cs.name)}
		for _, c := range cats {
			row = append(row, Cell{v.Static(c), "%.2f"})
		}
		t.row(row...)
	}
	return tableResult("Figure 3: static features for case studies (Dataset: JP-ditl)", t)
}

// Figure4 regenerates the controlled-scan attenuation experiment with its
// power-law fit.
func Figure4(s *Store) Result {
	fracs := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2}
	if s.Heavy {
		fracs = append(fracs, 1e-1)
	}
	const react = 0.002
	t := &Table{Header: []string{"scan fraction", "targets", "reacting", "final queriers", "final queries", "root queriers"}}
	var xs, ys []float64
	for i, f := range fracs {
		// Three trials per size, like the paper's repeats.
		trials := 3
		if f >= 1e-2 {
			trials = 1
		}
		for k := 0; k < trials; k++ {
			res := backscatter.ControlledScan(uint64(1000+10*i+k), f, react)
			t.row(Cell{f * 100, "%.4g%%"}, Cell{res.Targets, "%d"}, Cell{res.Reacting, "%d"},
				Cell{res.FinalQueriers, "%d"}, Cell{res.FinalQueries, "%d"}, Cell{res.RootQueriers, "%d"})
			if res.FinalQueriers > 0 {
				xs = append(xs, float64(res.Targets))
				ys = append(ys, float64(res.FinalQueriers))
			}
		}
	}
	c, alpha := backscatter.PowerLawFit(xs, ys)
	r := Result{Title: "Figure 4: queriers vs controlled scan size (final authority, PTR TTL=0)"}
	r.table(t)
	r.text("", fmt.Sprintf("power-law fit: queriers ≈ %.3g · targets^%.2f (paper: exponent 0.71)", c, alpha),
		"detection threshold: 20 queriers")
	r.measure("fit/coefficient", c)
	r.measure("fit/exponent", alpha)
	return r
}

// multiYearContext prepares B-multi-year with labels curated at the
// paper's curation window (2014-04-28..30).
func multiYearContext(s *Store) (*backscatter.Dataset, *backscatter.LabeledSet, int, int) {
	d := s.Get(backscatter.BMultiYear())
	spec := d.Spec
	cur := simtime.Date(2014, time.April, 28, 0, 0)
	curIdx := int(cur.Sub(spec.Start) / spec.Interval)
	if curIdx >= len(d.Snapshots) {
		curIdx = len(d.Snapshots) - 1
	}
	labels := d.CurateAt(curIdx)
	perMonth := int(30 * simtime.Day / spec.Interval)
	if perMonth < 1 {
		perMonth = 1
	}
	return d, labels, curIdx, perMonth
}

// labelActivity regenerates Figure 5 (benign) or Figure 6 (malicious):
// how many of the labeled examples curated at one date stay active,
// with counts one month before and one and six months after curation.
func labelActivity(malicious bool) func(*Store) Result {
	fig, kind, note := 5, "benign", "expected shape: slow decay (paper: ~10%/month)"
	if malicious {
		fig, kind, note = 6, "malicious", "expected shape: sharp falloff (paper: ~50% within a month)"
	}
	return func(s *Store) Result {
		d, labels, curIdx, perMonth := multiYearContext(s)
		re := d.Reappearances(labels)
		series := make([]int, len(re))
		for i, x := range re {
			series[i] = x.Benign
			if malicious {
				series[i] = x.Malicious
			}
		}
		r := Result{Title: fmt.Sprintf("Figure %d: %s labeled-example activity over time (Dataset: B-multi-year)", fig, kind)}
		base := series[curIdx]
		r.measure("at curation", float64(base))
		decay := []string{fmt.Sprintf("at curation: %d", base)}
		for k, at := range []int{curIdx - perMonth, curIdx + perMonth, curIdx + 6*perMonth} {
			label, frac := []string{"-1mo", "+1mo", "+6mo"}[k], "n/a"
			if at >= 0 && at < len(series) {
				r.measure(label, float64(series[at]))
				if base > 0 {
					frac = fmt.Sprintf("%d (%.0f%%)", series[at], 100*float64(series[at])/float64(base))
				}
			}
			decay = append(decay, label+": "+frac)
		}
		r.text(fmt.Sprintf("curation at interval %d (%s)", curIdx, re[curIdx].Start),
			kind+"  "+obs.Sparkline(series), strings.Join(decay, "   "), note)
		return r
	}
}

// Figure7 regenerates the strategy comparison.
func Figure7(s *Store) Result {
	d, labels, curIdx, perMonth := multiYearContext(s)
	r := Result{Title: "Figure 7: f-score over time by training strategy (Dataset: B-multi-year)"}
	r.text(fmt.Sprintf("curation at interval %d; one column per interval (%s each)", curIdx, fmtDur(d.Spec.Interval)))
	t := &Table{Keys: 1, Header: []string{"strategy", "f@curation", "f@+1mo", "f@+6mo", "mean f (trained)", "intervals trained"}}
	for _, strat := range []backscatter.TrainingStrategy{
		backscatter.TrainOnce, backscatter.RetrainDaily, backscatter.AutoGrow,
	} {
		pts := d.RunStrategy(strat, labels, curIdx, 0)
		series := make([]int, len(pts))
		var sum float64
		trained := 0
		for i, p := range pts {
			series[i] = int(100 * p.F1)
			if p.Trained {
				sum += p.F1
				trained++
			}
		}
		at := func(i int) float64 {
			if i < 0 || i >= len(pts) || !pts[i].Trained {
				return math.NaN()
			}
			return pts[i].F1
		}
		mean := 0.0
		if trained > 0 {
			mean = sum / float64(trained)
		}
		t.row(str(strat.String()), Cell{at(curIdx), "%.2f"}, Cell{at(curIdx + perMonth), "%.2f"},
			Cell{at(curIdx + 6*perMonth), "%.2f"}, Cell{mean, "%.2f"},
			Cell{trained, fmt.Sprintf("%%d/%d", len(d.Snapshots))})
		r.text(fmt.Sprintf("%-12s %s", strat.String(), obs.Sparkline(series)))
	}
	r.table(t)
	r.text("expected shape: train-daily ≥ train-once ≥ auto-grow away from curation")
	return r
}

// weeklyClassesFiltered keeps, of each interval's classifications, the
// originators with at least q queriers that interval.
func weeklyClassesFiltered(d *backscatter.Dataset, weekly []map[backscatter.Addr]backscatter.Class, q int) []map[backscatter.Addr]backscatter.Class {
	out := make([]map[backscatter.Addr]backscatter.Class, len(weekly))
	for i, wk := range weekly {
		if wk == nil {
			continue
		}
		m := make(map[backscatter.Addr]backscatter.Class)
		for a, c := range wk {
			if v, ok := d.Snapshots[i].Vector(a); ok && v.Queriers >= q {
				m[a] = c
			}
		}
		out[i] = m
	}
	return out
}

// Figure8 regenerates the consistency CDF at several querier thresholds.
func Figure8(s *Store) Result {
	d := s.Get(backscatter.MSampled())
	weekly := d.ClassifyIntervals()
	t := &Table{Keys: 1, Header: []string{"q", "originators", "frac r=1 (consistent)", "frac r>0.5 (majority)", "median r"}}
	for _, q := range []int{20, 50, 75, 100} {
		rs := backscatter.ConsistencyCDF(weeklyClassesFiltered(d, weekly, q), 4)
		if len(rs) == 0 {
			t.row(Cell{q, "%d"}, Cell{0, "%d"}, str("n/a"), str("n/a"), str("n/a"))
			continue
		}
		t.row(Cell{q, "%d"}, Cell{len(rs), "%d"},
			Cell{backscatter.FractionAtLeast(rs, 1), "%.2f"},
			Cell{backscatter.FractionAtLeast(rs, 0.5001), "%.2f"},
			Cell{rs[len(rs)/2], "%.2f"})
	}
	return tableResult("Figure 8: CDF of majority-class ratio r (Dataset: M-sampled, ≥4 weeks present)", t,
		"expected shape: more queriers ⇒ more consistent; 85-90% have a strict majority class")
}

// Figure9 regenerates the footprint-size distributions.
func Figure9(s *Store) Result {
	t := &Table{Keys: 1, Header: []string{"dataset", "originators", "p50", "p90", "p99", "max", "CCDF@100", "CCDF@1000"}}
	for _, spec := range []backscatter.DatasetSpec{
		backscatter.JPDitl(), backscatter.BPostDitl(), backscatter.MDitl(), backscatter.MSampled(),
	} {
		d := s.Get(spec)
		snap := d.Whole()
		pts := backscatter.FootprintCCDF(snap)
		if len(pts) == 0 {
			t.row(str(spec.Name), Cell{0, "%d"})
			continue
		}
		sizes := make([]float64, len(snap.Vectors))
		for i, v := range snap.Vectors {
			sizes[i] = float64(v.Queriers)
		}
		qs := backscatter.Quantiles(sizes)
		ccdfAt := func(x int) float64 {
			frac := 0.0
			for _, p := range pts {
				if p.Size >= x {
					frac = p.CCDF
					break
				}
			}
			return frac
		}
		maxSize := pts[len(pts)-1].Size
		t.row(str(spec.Name), Cell{len(snap.Vectors), "%d"}, Cell{qs.P50, "%.0f"}, Cell{qs.P90, "%.0f"},
			Cell{quantile(sizes, 0.99), "%.0f"}, Cell{maxSize, "%d"}, Cell{ccdfAt(100), "%.3f"}, Cell{ccdfAt(1000), "%.4f"})
	}
	return tableResult("Figure 9: distribution of originator footprint size", t,
		"expected shape: heavy tail — a few originators reach 10-100x the median footprint")
}

func quantile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(p * float64(len(s)-1))
	return s[i]
}

// Figure10 regenerates the top-N class fractions.
func Figure10(s *Store) Result {
	r := Result{Title: "Figure 10: fraction of originator classes among top-N originators"}
	for _, spec := range []backscatter.DatasetSpec{
		backscatter.JPDitl(), backscatter.BPostDitl(), backscatter.MDitl(),
	} {
		d := s.Get(spec)
		classes, err := classifyWhole(d)
		if err != nil {
			r.text(spec.Name + ": untrainable")
			continue
		}
		ranked := d.Whole().Ranked()
		t := &Table{Name: spec.Name, Keys: 1, Header: classHeader(spec.Name)}
		for _, n := range []int{100, 1000, 10000} {
			if n > len(ranked) {
				n = len(ranked)
			}
			fr := backscatter.ClassFractions(classes, ranked, n)
			row := []Cell{{n, "top-%d"}}
			for _, f := range fr {
				row = append(row, Cell{f, "%.2f"})
			}
			t.row(row...)
			if n == len(ranked) {
				break
			}
		}
		r.table(t)
		r.text("")
	}
	r.text("expected shape: biggest footprints skew malicious (spam at JP, scan at roots);",
		"mail/crawler rise only in the broader top-N")
	return r
}

// Figure11 regenerates originator counts over time with the Heartbleed
// window highlighted.
func Figure11(s *Store) Result {
	d := s.Get(backscatter.MSampled())
	weekly := weeklyClassesFiltered(d, d.ClassifyIntervals(), d.Extractor.MinQueriers)
	totals := make([]int, len(weekly))
	scans := make([]int, len(weekly))
	spams := make([]int, len(weekly))
	mails := make([]int, len(weekly))
	for i, wk := range weekly {
		counts := backscatter.ClassCounts(wk)
		for _, c := range counts {
			totals[i] += c
		}
		scans[i] = counts[backscatter.Scan]
		spams[i] = counts[backscatter.Spam]
		mails[i] = counts[backscatter.Mail]
	}
	r := Result{Title: "Figure 11: number of originators over time (Dataset: M-sampled)"}
	r.text("total "+obs.Sparkline(totals), "scan  "+obs.Sparkline(scans),
		"spam  "+obs.Sparkline(spams), "mail  "+obs.Sparkline(mails))

	// Heartbleed: compare scan counts in the four weeks after 2014-04-07
	// against the four weeks before.
	hb := simtime.Date(2014, time.April, 7, 0, 0)
	hbIdx := int(hb.Sub(d.Spec.Start) / d.Spec.Interval)
	pre, post := 0.0, 0.0
	n := 0
	for k := 1; k <= 4; k++ {
		if hbIdx-k >= 0 && hbIdx+k < len(scans) {
			pre += float64(scans[hbIdx-k])
			post += float64(scans[hbIdx+k-1])
			n++
		}
	}
	if n > 0 {
		r.measure("heartbleed/before", pre/float64(n))
		r.measure("heartbleed/after", post/float64(n))
	}
	if n > 0 && pre > 0 {
		r.text(fmt.Sprintf("Heartbleed (week %d): scanners %.0f/wk before → %.0f/wk after (%+.0f%%; paper: ≈+25%%)",
			hbIdx, pre/float64(n), post/float64(n), 100*(post-pre)/pre))
	}
	return r
}

// Figure12 regenerates the scanner-footprint box plot over time.
func Figure12(s *Store) Result {
	d := s.Get(backscatter.MSampled())
	weekly := weeklyClassesFiltered(d, d.ClassifyIntervals(), d.Extractor.MinQueriers)
	t := &Table{Keys: 1, Header: []string{"week", "n", "p10", "p25", "median", "p75", "p90"}}
	step := len(weekly) / 12
	if step < 1 {
		step = 1
	}
	for i := 0; i < len(weekly); i += step {
		var sizes []float64
		for a, c := range weekly[i] {
			if c != backscatter.Scan {
				continue
			}
			if v, ok := d.Snapshots[i].Vector(a); ok {
				sizes = append(sizes, float64(v.Queriers))
			}
		}
		q := backscatter.Quantiles(sizes)
		t.row(Cell{i, "%d"}, Cell{q.N, "%d"}, Cell{q.P10, "%.0f"}, Cell{q.P25, "%.0f"},
			Cell{q.P50, "%.0f"}, Cell{q.P75, "%.0f"}, Cell{q.P90, "%.0f"})
	}
	return tableResult("Figure 12: originator footprint (queriers per scanner) over time (Dataset: M-sampled)", t,
		"expected shape: stable median/quartiles, volatile p90 (big scanners come and go)")
}

// Figure13 regenerates example scanner time series.
func Figure13(s *Store) Result {
	d := s.Get(backscatter.MSampled())
	weeks := int(d.Spec.Duration / simtime.Week)
	r := Result{Title: "Figure 13: example originators of class scan (weekly queriers; Dataset: M-sampled + darknet)"}

	// Show up to five scanners, at most two per port, largest footprints
	// first.
	seenPort, shown := map[string]int{}, 0
	for _, v := range d.Whole().Vectors {
		tr, ok := d.World.Truth(v.Originator)
		if !ok || tr.Class != backscatter.Scan || seenPort[tr.Port] >= 2 {
			continue
		}
		seenPort[tr.Port]++
		dark := d.OriginatorEvidence(v.Originator).DarknetHits
		series := backscatter.UniqueQueriersPerWeek(d.Records, v.Originator, d.Spec.Start, weeks)
		active := 0
		for _, n := range series {
			if n > 0 {
				active++
			}
		}
		r.text(fmt.Sprintf("%-16s %-6s dark=%d active %d/%d wk  %s",
			v.Originator, tr.Port, dark, active, weeks, obs.Sparkline(series)))
		r.measure(v.Originator.String()+"/dark", float64(dark))
		r.measure(v.Originator.String()+"/active weeks", float64(active))
		if shown++; shown == 5 {
			break
		}
	}
	r.text("expected shape: persistent ssh/multi scanners plus short-lived burst scanners")
	return r
}

// Figure14 regenerates per-/24-block scanning activity.
func Figure14(s *Store) Result {
	d := s.Get(backscatter.MSampled())
	weekly := weeklyClassesFiltered(d, d.ClassifyIntervals(), d.Extractor.MinQueriers)
	r := Result{Title: "Figure 14: scanning addresses per /24 block over time (Dataset: M-sampled)"}

	// Count scan-class IPs per block per week; show the five busiest.
	blocks := make(map[uint32][]int)
	for i, wk := range weekly {
		for a, c := range wk {
			if c != backscatter.Scan {
				continue
			}
			b := a.Slash24()
			if _, ok := blocks[b]; !ok {
				blocks[b] = make([]int, len(weekly))
			}
			blocks[b][i]++
		}
	}
	type blk struct {
		id   uint32
		peak int
		ser  []int
	}
	var top []blk
	for id, ser := range blocks {
		peak := 0
		for _, v := range ser {
			if v > peak {
				peak = v
			}
		}
		top = append(top, blk{id, peak, ser})
	}
	sort.Slice(top, func(i, j int) bool {
		if top[i].peak != top[j].peak {
			return top[i].peak > top[j].peak
		}
		return top[i].id < top[j].id
	})
	if len(top) > 5 {
		top = top[:5]
	}
	for _, b := range top {
		block := backscatter.Addr(b.id<<8).String() + "/24"
		r.text(fmt.Sprintf("%-18s peak=%-3d %s", block, b.peak, obs.Sparkline(b.ser)))
		r.measure(block+"/peak", float64(b.peak))
	}
	r.text("expected shape: a few blocks host many concurrent scanners (teams), others single")
	return r
}

// Figure15 regenerates week-by-week churn for scanners.
func Figure15(s *Store) Result {
	d := s.Get(backscatter.MSampled())
	weekly := weeklyClassesFiltered(d, d.ClassifyIntervals(), d.Extractor.MinQueriers)
	churn := backscatter.Churn(weekly, backscatter.Scan)
	t := &Table{Keys: 1, Header: []string{"week", "new", "continuing", "departing", "turnover"}}
	var turn []float64
	for _, p := range churn[1:] { // week 0 is all-new by construction
		total := p.New + p.Continuing
		if total == 0 {
			continue
		}
		tv := float64(p.Departing) / float64(total)
		turn = append(turn, tv)
		t.row(Cell{p.Week, "%d"}, Cell{p.New, "%d"}, Cell{p.Continuing, "%d"}, Cell{p.Departing, "%d"}, Cell{100 * tv, "%.0f%%"})
	}
	r := Result{Title: "Figure 15: week-by-week churn for originators of class scan (Dataset: M-sampled)"}
	r.table(t)
	if len(turn) > 0 {
		var sum float64
		for _, v := range turn {
			sum += v
		}
		mean := 100 * sum / float64(len(turn))
		r.text(fmt.Sprintf("mean weekly turnover: %.0f%% (paper: ≈20%% with a stable core)", mean))
		r.measure("mean weekly turnover", mean)
	}
	return r
}

// Figure16 regenerates the diurnal case studies.
func Figure16(s *Store) Result {
	d := s.Get(backscatter.JPDitl())
	bucket := simtime.Hour
	t := &Table{Keys: 1, Header: []string{"case", "diurnal amplitude", "hourly series"}}
	for _, cs := range caseStudies(d) {
		series := backscatter.TimeSeries(d.Records, cs.addr, d.Spec.Start, d.Spec.Duration, bucket)
		t.row(str(cs.name), Cell{backscatter.DiurnalAmplitude(series, bucket), "%.2f"}, str(obs.Sparkline(series)))
	}
	return tableResult("Figure 16: diurnal variation in queriers for case studies (Dataset: JP-ditl)", t,
		"expected shape: ad-tracker/cdn/mail diurnal; scan-ssh/spam flat")
}
