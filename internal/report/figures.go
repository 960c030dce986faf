package report

import (
	"fmt"
	"math"
	"sort"
	"time"

	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/simtime"
)

// Figure3 regenerates the static-feature case studies.
func Figure3(s *Store) string {
	d := s.Get(backscatter.JPDitl())
	cats := []qname.Category{
		qname.Home, qname.Mail, qname.NS, qname.FW, qname.Antispam,
		qname.NXDomain, qname.Unreach, qname.Other,
	}
	t := &tw{}
	head := []string{"case"}
	for _, c := range cats {
		head = append(head, c.String())
	}
	t.row(head...)
	for _, cs := range caseStudies(d) {
		v, ok := d.Whole().Vector(cs.addr)
		if !ok {
			continue
		}
		row := []string{cs.name}
		for _, c := range cats {
			row = append(row, fmt.Sprintf("%.2f", v.Static(c)))
		}
		t.row(row...)
	}
	return header("Figure 3: static features for case studies (Dataset: JP-ditl)") + t.String()
}

// Figure4 regenerates the controlled-scan attenuation experiment with its
// power-law fit.
func Figure4(s *Store) string {
	fracs := []float64{1e-6, 1e-5, 1e-4, 1e-3, 1e-2}
	if s.Heavy {
		fracs = append(fracs, 1e-1)
	}
	const react = 0.002
	t := &tw{}
	t.row("scan fraction", "targets", "reacting", "final queriers", "final queries", "root queriers")
	var xs, ys []float64
	for i, f := range fracs {
		// Three trials per size, like the paper's repeats.
		trials := 3
		if f >= 1e-2 {
			trials = 1
		}
		for k := 0; k < trials; k++ {
			res := backscatter.ControlledScan(uint64(1000+10*i+k), f, react)
			t.rowf("%.4g%%\t%d\t%d\t%d\t%d\t%d",
				f*100, res.Targets, res.Reacting, res.FinalQueriers, res.FinalQueries, res.RootQueriers)
			if res.FinalQueriers > 0 {
				xs = append(xs, float64(res.Targets))
				ys = append(ys, float64(res.FinalQueriers))
			}
		}
	}
	c, alpha := backscatter.PowerLawFit(xs, ys)
	out := header("Figure 4: queriers vs controlled scan size (final authority, PTR TTL=0)") + t.String()
	out += fmt.Sprintf("\npower-law fit: queriers ≈ %.3g · targets^%.2f (paper: exponent 0.71)\n", c, alpha)
	out += "detection threshold: 20 queriers\n"
	return out
}

// decayLine summarizes a reappearance series relative to its curation
// value: counts at curation, one month before/after, six months after.
func decayLine(re []backscatter.Reappearance, curIdx int, pick func(backscatter.Reappearance) int, intervalsPerMonth int) string {
	at := func(i int) int {
		if i < 0 || i >= len(re) {
			return -1
		}
		return pick(re[i])
	}
	base := at(curIdx)
	frac := func(v int) string {
		if v < 0 || base <= 0 {
			return "n/a"
		}
		return fmt.Sprintf("%d (%.0f%%)", v, 100*float64(v)/float64(base))
	}
	return fmt.Sprintf("at curation: %d   -1mo: %s   +1mo: %s   +6mo: %s",
		base,
		frac(at(curIdx-intervalsPerMonth)),
		frac(at(curIdx+intervalsPerMonth)),
		frac(at(curIdx+6*intervalsPerMonth)))
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

// reappearancesFor counts labeled-example activity with a specific set.
func reappearancesFor(d *backscatter.Dataset, labels *backscatter.LabeledSet) []backscatter.Reappearance {
	saved := d.Labels
	d.Labels = labels
	defer func() { d.Labels = saved }()
	return d.Reappearances()
}

// Figure5 regenerates benign labeled-example stability.
func Figure5(s *Store) string {
	d, labels, curIdx, perMonth := multiYearContext(s)
	re := reappearancesFor(d, labels)
	series := make([]int, len(re))
	for i, r := range re {
		series[i] = r.Benign
	}
	out := header("Figure 5: benign labeled-example activity over time (Dataset: B-multi-year)")
	out += fmt.Sprintf("curation at interval %d (%s)\n", curIdx, re[curIdx].Start)
	out += "benign  " + obs.Sparkline(series) + "\n"
	out += decayLine(re, curIdx, func(r backscatter.Reappearance) int { return r.Benign }, perMonth) + "\n"
	out += "expected shape: slow decay (paper: ~10%/month)\n"
	return out
}

// Figure6 regenerates malicious labeled-example churn.
func Figure6(s *Store) string {
	d, labels, curIdx, perMonth := multiYearContext(s)
	re := reappearancesFor(d, labels)
	series := make([]int, len(re))
	for i, r := range re {
		series[i] = r.Malicious
	}
	out := header("Figure 6: malicious labeled-example activity over time (Dataset: B-multi-year)")
	out += fmt.Sprintf("curation at interval %d (%s)\n", curIdx, re[curIdx].Start)
	out += "malicious  " + obs.Sparkline(series) + "\n"
	out += decayLine(re, curIdx, func(r backscatter.Reappearance) int { return r.Malicious }, perMonth) + "\n"
	out += "expected shape: sharp falloff (paper: ~50% within a month)\n"
	return out
}

// Figure7 regenerates the strategy comparison.
func Figure7(s *Store) string {
	d, labels, curIdx, perMonth := multiYearContext(s)
	out := header("Figure 7: f-score over time by training strategy (Dataset: B-multi-year)")
	out += fmt.Sprintf("curation at interval %d; one column per interval (%s each)\n",
		curIdx, fmtDur(d.Spec.Interval))
	type summary struct {
		name    string
		atCur   float64
		plus1mo float64
		plus6mo float64
		mean    float64
		trained int
	}
	var sums []summary
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
		sums = append(sums, summary{
			name: strat.String(), atCur: at(curIdx),
			plus1mo: at(curIdx + perMonth), plus6mo: at(curIdx + 6*perMonth),
			mean: mean, trained: trained,
		})
		out += fmt.Sprintf("%-12s %s\n", strat.String(), obs.Sparkline(series))
	}
	t := &tw{}
	t.row("strategy", "f@curation", "f@+1mo", "f@+6mo", "mean f (trained)", "intervals trained")
	for _, u := range sums {
		t.rowf("%s\t%.2f\t%.2f\t%.2f\t%.2f\t%d/%d",
			u.name, u.atCur, u.plus1mo, u.plus6mo, u.mean, u.trained, len(d.Snapshots))
	}
	out += t.String()
	out += "expected shape: train-daily ≥ train-once ≥ auto-grow away from curation\n"
	return out
}

// weeklyClassesFiltered classifies each interval and keeps originators
// with at least q queriers that interval.
func weeklyClassesFiltered(d *backscatter.Dataset, q int) []map[backscatter.Addr]backscatter.Class {
	weekly := d.ClassifyIntervals()
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
func Figure8(s *Store) string {
	d := s.Get(backscatter.MSampled())
	out := header("Figure 8: CDF of majority-class ratio r (Dataset: M-sampled, ≥4 weeks present)")
	t := &tw{}
	t.row("q", "originators", "frac r=1 (consistent)", "frac r>0.5 (majority)", "median r")
	for _, q := range []int{20, 50, 75, 100} {
		weekly := weeklyClassesFiltered(d, q)
		rs := backscatter.ConsistencyCDF(weekly, 4)
		if len(rs) == 0 {
			t.rowf("%d\t0\tn/a\tn/a\tn/a", q)
			continue
		}
		t.rowf("%d\t%d\t%.2f\t%.2f\t%.2f",
			q, len(rs),
			backscatter.FractionAtLeast(rs, 1),
			backscatter.FractionAtLeast(rs, 0.5001),
			rs[len(rs)/2])
	}
	out += t.String()
	out += "expected shape: more queriers ⇒ more consistent; 85-90% have a strict majority class\n"
	return out
}

// Figure9 regenerates the footprint-size distributions.
func Figure9(s *Store) string {
	out := header("Figure 9: distribution of originator footprint size")
	t := &tw{}
	t.row("dataset", "originators", "p50", "p90", "p99", "max", "CCDF@100", "CCDF@1000")
	for _, spec := range []backscatter.DatasetSpec{
		backscatter.JPDitl(), backscatter.BPostDitl(), backscatter.MDitl(), backscatter.MSampled(),
	} {
		d := s.Get(spec)
		snap := d.Whole()
		pts := backscatter.FootprintCCDF(snap)
		if len(pts) == 0 {
			t.rowf("%s\t0", spec.Name)
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
		t.rowf("%s\t%d\t%.0f\t%.0f\t%.0f\t%d\t%.3f\t%.4f",
			spec.Name, len(snap.Vectors), qs.P50, qs.P90, quantile(sizes, 0.99), maxSize,
			ccdfAt(100), ccdfAt(1000))
	}
	out += t.String()
	out += "expected shape: heavy tail — a few originators reach 10-100x the median footprint\n"
	return out
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
func Figure10(s *Store) string {
	out := header("Figure 10: fraction of originator classes among top-N originators")
	for _, spec := range []backscatter.DatasetSpec{
		backscatter.JPDitl(), backscatter.BPostDitl(), backscatter.MDitl(),
	} {
		d := s.Get(spec)
		classes, err := classifyWhole(d)
		if err != nil {
			out += spec.Name + ": untrainable\n"
			continue
		}
		ranked := d.Whole().Ranked()
		t := &tw{}
		head := []string{spec.Name}
		for _, c := range classOrder() {
			head = append(head, c.String())
		}
		t.row(head...)
		for _, n := range []int{100, 1000, 10000} {
			if n > len(ranked) {
				n = len(ranked)
			}
			fr := backscatter.ClassFractions(classes, ranked, n)
			row := []string{fmt.Sprintf("top-%d", n)}
			for _, c := range classOrder() {
				row = append(row, fmt.Sprintf("%.2f", fr[c]))
			}
			t.row(row...)
			if n == len(ranked) {
				break
			}
		}
		out += t.String() + "\n"
	}
	out += "expected shape: biggest footprints skew malicious (spam at JP, scan at roots);\nmail/crawler rise only in the broader top-N\n"
	return out
}

// Figure11 regenerates originator counts over time with the Heartbleed
// window highlighted.
func Figure11(s *Store) string {
	d := s.Get(backscatter.MSampled())
	weekly := weeklyClassesFiltered(d, d.Extractor.MinQueriers)
	out := header("Figure 11: number of originators over time (Dataset: M-sampled)")
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
	out += fmt.Sprintf("total %s\n", obs.Sparkline(totals))
	out += fmt.Sprintf("scan  %s\n", obs.Sparkline(scans))
	out += fmt.Sprintf("spam  %s\n", obs.Sparkline(spams))
	out += fmt.Sprintf("mail  %s\n", obs.Sparkline(mails))

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
	if n > 0 && pre > 0 {
		out += fmt.Sprintf("Heartbleed (week %d): scanners %.0f/wk before → %.0f/wk after (%+.0f%%; paper: ≈+25%%)\n",
			hbIdx, pre/float64(n), post/float64(n), 100*(post-pre)/pre)
	}
	return out
}

// Figure12 regenerates the scanner-footprint box plot over time.
func Figure12(s *Store) string {
	d := s.Get(backscatter.MSampled())
	weekly := weeklyClassesFiltered(d, d.Extractor.MinQueriers)
	out := header("Figure 12: originator footprint (queriers per scanner) over time (Dataset: M-sampled)")
	t := &tw{}
	t.row("week", "n", "p10", "p25", "median", "p75", "p90")
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
		t.rowf("%d\t%d\t%.0f\t%.0f\t%.0f\t%.0f\t%.0f", i, q.N, q.P10, q.P25, q.P50, q.P75, q.P90)
	}
	out += t.String()
	out += "expected shape: stable median/quartiles, volatile p90 (big scanners come and go)\n"
	return out
}

// Figure13 regenerates example scanner time series.
func Figure13(s *Store) string {
	d := s.Get(backscatter.MSampled())
	weeks := int(d.Spec.Duration / simtime.Week)
	out := header("Figure 13: example originators of class scan (weekly queriers; Dataset: M-sampled + darknet)")

	// Pick up to five scanners with distinct ports, preferring large
	// footprints and darknet confirmation.
	type cand struct {
		addr backscatter.Addr
		port string
		dark int
	}
	var cands []cand
	seenPort := map[string]int{}
	for _, v := range d.Whole().Vectors {
		tr, ok := d.World.Truth(v.Originator)
		if !ok || tr.Class != backscatter.Scan {
			continue
		}
		if seenPort[tr.Port] >= 2 {
			continue
		}
		seenPort[tr.Port]++
		cands = append(cands, cand{v.Originator, tr.Port, d.OriginatorEvidence(v.Originator).DarknetHits})
		if len(cands) == 5 {
			break
		}
	}
	for _, c := range cands {
		series := backscatter.UniqueQueriersPerWeek(d.Records, c.addr, d.Spec.Start, weeks)
		active := 0
		for _, v := range series {
			if v > 0 {
				active++
			}
		}
		out += fmt.Sprintf("%-16s %-6s dark=%d active %d/%d wk  %s\n",
			c.addr, c.port, c.dark, active, weeks, obs.Sparkline(series))
	}
	out += "expected shape: persistent ssh/multi scanners plus short-lived burst scanners\n"
	return out
}

// Figure14 regenerates per-/24-block scanning activity.
func Figure14(s *Store) string {
	d := s.Get(backscatter.MSampled())
	weekly := weeklyClassesFiltered(d, d.Extractor.MinQueriers)
	out := header("Figure 14: scanning addresses per /24 block over time (Dataset: M-sampled)")

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
		addr := backscatter.Addr(b.id << 8)
		out += fmt.Sprintf("%-18s peak=%-3d %s\n", addr.String()+"/24", b.peak, obs.Sparkline(b.ser))
	}
	out += "expected shape: a few blocks host many concurrent scanners (teams), others single\n"
	return out
}

// Figure15 regenerates week-by-week churn for scanners.
func Figure15(s *Store) string {
	d := s.Get(backscatter.MSampled())
	weekly := weeklyClassesFiltered(d, d.Extractor.MinQueriers)
	churn := backscatter.Churn(weekly, backscatter.Scan)
	out := header("Figure 15: week-by-week churn for originators of class scan (Dataset: M-sampled)")
	t := &tw{}
	t.row("week", "new", "continuing", "departing", "turnover")
	var turn []float64
	for _, p := range churn[1:] { // week 0 is all-new by construction
		total := p.New + p.Continuing
		if total == 0 {
			continue
		}
		tv := float64(p.Departing) / float64(total)
		turn = append(turn, tv)
		t.rowf("%d\t%d\t%d\t%d\t%.0f%%", p.Week, p.New, p.Continuing, p.Departing, 100*tv)
	}
	out += t.String()
	if len(turn) > 0 {
		var sum float64
		for _, v := range turn {
			sum += v
		}
		out += fmt.Sprintf("mean weekly turnover: %.0f%% (paper: ≈20%% with a stable core)\n", 100*sum/float64(len(turn)))
	}
	return out
}

// Figure16 regenerates the diurnal case studies.
func Figure16(s *Store) string {
	d := s.Get(backscatter.JPDitl())
	out := header("Figure 16: diurnal variation in queriers for case studies (Dataset: JP-ditl)")
	bucket := simtime.Hour
	t := &tw{}
	t.row("case", "diurnal amplitude", "hourly series")
	for _, cs := range caseStudies(d) {
		series := backscatter.TimeSeries(d.Records, cs.addr, d.Spec.Start, d.Spec.Duration, bucket)
		amp := backscatter.DiurnalAmplitude(series, bucket)
		t.rowf("%s\t%.2f\t%s", cs.name, amp, obs.Sparkline(series))
	}
	out += t.String()
	out += "expected shape: ad-tracker/cdn/mail diurnal; scan-ssh/spam flat\n"
	return out
}
