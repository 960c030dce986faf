package backscatter

import (
	"reflect"
	"testing"
)

// multiDS builds a small multi-interval dataset shared by strategy tests.
func multiDS(t *testing.T) *Dataset {
	t.Helper()
	spec := JPDitl().Scaled(0.5)
	spec.Duration = Duration(3 * 86400)
	spec.Interval = Duration(86400)
	spec.MinQueriers = 8
	return Build(spec)
}

func TestRunStrategyAllModes(t *testing.T) {
	d := multiDS(t)
	labels := d.CurateAt(0)
	if labels.Total() == 0 {
		t.Fatal("curation empty")
	}
	for _, strat := range []TrainingStrategy{TrainOnce, RetrainDaily, AutoGrow, ManualRecuration} {
		recur := 0
		if strat == ManualRecuration {
			recur = 1
		}
		pts := d.RunStrategy(strat, labels, 0, recur)
		if len(pts) != len(d.Snapshots) {
			t.Fatalf("%v: %d points for %d snapshots", strat, len(pts), len(d.Snapshots))
		}
		anyTrained := false
		for _, p := range pts {
			if p.Trained {
				anyTrained = true
				if p.F1 < 0 || p.F1 > 1 {
					t.Errorf("%v: F1 = %v out of range", strat, p.F1)
				}
			}
		}
		if !anyTrained {
			t.Errorf("%v: no interval trained", strat)
		}
	}
}

func TestRunStrategyNilLabelsUsesDatasetLabels(t *testing.T) {
	d := multiDS(t)
	pts := d.RunStrategy(RetrainDaily, nil, 0, 0)
	if len(pts) != len(d.Snapshots) {
		t.Fatal("wrong point count")
	}
}

func TestReappearances(t *testing.T) {
	d := multiDS(t)
	re := d.Reappearances(nil)
	if len(re) != len(d.Snapshots) {
		t.Fatal("length mismatch")
	}
	total := 0
	for _, r := range re {
		total += r.Benign + r.Malicious
	}
	if total == 0 {
		t.Error("no labeled examples ever reappear")
	}
	if !reflect.DeepEqual(re, d.Reappearances(d.Labels)) {
		t.Error("nil labels do not count d.Labels")
	}
	own, counts := d.Labels, d.Labels.Counts()
	if curated := d.Reappearances(d.CurateAt(len(d.Snapshots) - 1)); len(curated) != len(d.Snapshots) {
		t.Error("curated-set length mismatch")
	}
	if d.Labels != own || d.Labels.Counts() != counts {
		t.Error("counting a curated set changed d.Labels")
	}
}

func TestClassifyIntervalsShape(t *testing.T) {
	d := multiDS(t)
	maps := d.ClassifyIntervals()
	if len(maps) != len(d.Snapshots) {
		t.Fatal("length mismatch")
	}
	classified := 0
	for i, m := range maps {
		for a, cls := range m {
			if cls < 0 || cls >= NumClasses {
				t.Fatalf("invalid class %d", cls)
			}
			if _, ok := d.Snapshots[i].Vector(a); !ok {
				t.Fatalf("interval %d classified non-analyzable originator %v", i, a)
			}
			classified++
		}
	}
	if classified == 0 {
		t.Error("nothing classified in any interval")
	}
}

func TestControlledScanPublic(t *testing.T) {
	small := ControlledScan(7, 0.0001, 0.002)
	big := ControlledScan(7, 0.001, 0.002)
	if small.Targets >= big.Targets {
		t.Error("target counts not ordered")
	}
	if big.FinalQueriers == 0 {
		t.Error("no queriers at final authority for 0.001 scan")
	}
	if big.FinalQueriers < small.FinalQueriers {
		t.Error("queriers shrank with a bigger scan")
	}
	if big.RootQueriers > big.FinalQueriers {
		t.Error("roots saw more queriers than the final authority")
	}
}

func TestAnalysisWrappers(t *testing.T) {
	d := multiDS(t)
	snap := d.Whole()
	if pts := FootprintCCDF(snap); len(pts) == 0 {
		t.Error("empty footprint CCDF")
	}
	classes := d.TruthMap()
	counts := ClassCounts(classes)
	sum := 0
	for _, c := range counts {
		sum += c
	}
	if sum != len(classes) {
		t.Error("class counts do not add up")
	}
	fr := ClassFractions(classes, snap.Ranked(), 10)
	var fsum float64
	for _, f := range fr {
		fsum += f
	}
	if fsum < 0.99 || fsum > 1.01 {
		t.Errorf("fractions sum to %v", fsum)
	}
	weekly := d.ClassifyIntervals()
	_ = Churn(weekly, Scan)
	_ = ScannerTeams(classes, 4)
	rs := ConsistencyCDF(weekly, 1)
	for _, r := range rs {
		if r < 0 || r > 1 {
			t.Fatalf("consistency ratio %v out of range", r)
		}
	}
	if c, a := PowerLawFit([]float64{10, 100, 1000}, []float64{3, 15, 75}); c <= 0 || a <= 0 {
		t.Errorf("power-law fit (%v, %v)", c, a)
	}
	series := TimeSeries(d.Records, d.Whole().Vectors[0].Originator, d.Spec.Start, d.Spec.Duration, Duration(3600))
	if DiurnalAmplitude(series, Duration(3600)) < 0 {
		t.Error("negative amplitude")
	}
	if got := UniqueQueriersPerWeek(d.Records, d.Whole().Vectors[0].Originator, d.Spec.Start, 1); got[0] == 0 {
		t.Error("top originator has zero weekly queriers")
	}
	q := Quantiles([]float64{1, 2, 3, 4})
	if q.P50 != 2.5 {
		t.Errorf("median = %v", q.P50)
	}
	ev := d.OriginatorEvidence(d.Whole().Vectors[0].Originator)
	if ev.DarknetHits < 0 || ev.SpamLists < 0 {
		t.Error("negative evidence")
	}
}

func TestAlgorithmStrings(t *testing.T) {
	if AlgCART.String() != "CART" || AlgRandomForest.String() != "RF" || AlgSVM.String() != "SVM" {
		t.Error("algorithm names wrong")
	}
	if Algorithm(99).String() != "unknown" {
		t.Error("unknown algorithm name")
	}
	for _, a := range []Algorithm{AlgCART, AlgRandomForest, AlgSVM} {
		if a.trainer() == nil {
			t.Errorf("%v has no trainer", a)
		}
	}
}
