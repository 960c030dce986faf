package classify

import (
	"reflect"
	"testing"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/groundtruth"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/ml"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/world"
)

// fixture builds a two-day world once and derives everything tests need.
type fixture struct {
	w      *world.World
	x      *features.Extractor
	snap   *Snapshot // jp-sensor snapshot over the whole span
	oracle *groundtruth.Oracle
	labels *groundtruth.LabeledSet
}

var shared *fixture

func getFixture(t *testing.T) *fixture {
	t.Helper()
	if shared != nil {
		return shared
	}
	cfg := world.DefaultConfig()
	cfg.Duration = simtime.Days(2)
	cfg.RateScale = 0.5
	cfg.JPShare = 0.5 // concentrate originators where the jp sensor looks
	cfg.DarknetSlash8 = 150
	w := world.New(cfg)
	w.Run()

	x := features.NewExtractor(w.Geo, w.QuerierName)
	x.MinQueriers = 10 // downscaled world, downscaled threshold
	snap := Snap(w.National["jp"].Records(), x, cfg.Start, cfg.Duration)
	if len(snap.Vectors) < 30 {
		t.Fatalf("fixture too small: %d analyzable originators", len(snap.Vectors))
	}

	truth := make(map[ipaddr.Addr]activity.Class)
	for a, tr := range w.TruthMap() {
		truth[a] = tr.Class
	}
	oracle := groundtruth.NewOracle(truth, w.Dark, cfg.Seed)
	cur := groundtruth.DefaultCuration()
	cur.LabelNoise = 0
	labels := groundtruth.Curate(snap.Ranked(), oracle, cur, rng.New(99))
	shared = &fixture{w: w, x: x, snap: snap, oracle: oracle, labels: labels}
	return shared
}

func TestSnapshotIndex(t *testing.T) {
	f := getFixture(t)
	for _, v := range f.snap.Vectors {
		got, ok := f.snap.Vector(v.Originator)
		if !ok || got != v {
			t.Fatal("snapshot index broken")
		}
	}
	if _, ok := f.snap.Vector(ipaddr.MustParse("203.0.113.250")); ok {
		t.Error("index returned vector for unseen originator")
	}
	ranked := f.snap.Ranked()
	if len(ranked) != len(f.snap.Vectors) || ranked[0] != f.snap.Vectors[0].Originator {
		t.Error("Ranked inconsistent with Vectors")
	}
}

func TestTrainingSetRespectsMinPerClass(t *testing.T) {
	f := getFixture(t)
	p := NewPipeline()
	p.MinPerClass = 3
	ds, addrs, err := p.TrainingSet(f.snap, f.labels)
	if err != nil {
		t.Fatal(err)
	}
	if ds.Len() != len(addrs) {
		t.Fatal("rows/addrs mismatch")
	}
	counts := ds.ClassCounts()
	for cls, c := range counts {
		if c > 0 && c < 3 {
			t.Errorf("class %d trained with %d < MinPerClass rows", cls, c)
		}
	}
	// Every training row's label matches the labeled set.
	for i, a := range addrs {
		if int(f.labels.Labels[a]) != ds.Y[i] {
			t.Fatalf("row %d label mismatch", i)
		}
	}
}

func TestTrainingFailsWithoutExamples(t *testing.T) {
	f := getFixture(t)
	empty := &groundtruth.LabeledSet{Labels: map[ipaddr.Addr]activity.Class{}}
	if _, err := NewPipeline().Train(f.snap, empty, rng.New(1)); err == nil {
		t.Error("training succeeded on empty labels")
	}
	one := &groundtruth.LabeledSet{Labels: map[ipaddr.Addr]activity.Class{
		f.snap.Vectors[0].Originator: activity.Spam,
	}}
	p := NewPipeline()
	p.MinPerClass = 1
	if _, err := p.Train(f.snap, one, rng.New(1)); err == nil {
		t.Error("training succeeded with one class")
	}
}

func TestEndToEndClassification(t *testing.T) {
	f := getFixture(t)
	p := NewPipeline()
	m, err := p.Train(f.snap, f.labels, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	metrics, n := m.EvaluateOn(f.snap, f.labels)
	if n < 20 {
		t.Fatalf("only %d validation examples", n)
	}
	// Training-set evaluation: should be strong for RF.
	if metrics.Accuracy < 0.6 {
		t.Errorf("in-sample accuracy = %.2f, want > 0.6", metrics.Accuracy)
	}
	// Held-out check via the ml layer.
	ds, _, err := p.TrainingSet(f.snap, f.labels)
	if err != nil {
		t.Fatal(err)
	}
	res := ml.CrossValidate(p.Trainer, ds, 0.6, 5, rng.New(8))
	if res.Accuracy.Mean < 0.4 {
		t.Errorf("cross-validated accuracy = %.2f, want well above chance (~0.08)", res.Accuracy.Mean)
	}
	t.Logf("held-out accuracy %.2f ± %.2f, F1 %.2f", res.Accuracy.Mean, res.Accuracy.Std, res.F1.Mean)
}

func TestClassifyAllCoversSnapshot(t *testing.T) {
	f := getFixture(t)
	m, err := NewPipeline().Train(f.snap, f.labels, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	all := m.ClassifyAll(f.snap)
	if len(all) != len(f.snap.Vectors) {
		t.Errorf("classified %d of %d", len(all), len(f.snap.Vectors))
	}
	for _, cls := range all {
		if cls < 0 || cls >= activity.NumClasses {
			t.Fatalf("invalid class %d", cls)
		}
	}
}

func TestMajorityVotesPipeline(t *testing.T) {
	f := getFixture(t)
	p := NewPipeline()
	p.Votes = 3
	m, err := p.Train(f.snap, f.labels, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	if _, n := m.EvaluateOn(f.snap, f.labels); n == 0 {
		t.Error("no evaluations")
	}
}

func TestSnapIntervals(t *testing.T) {
	f := getFixture(t)
	cfg := f.w.Cfg
	snaps := SnapIntervals(f.w.National["jp"].Records(), f.x, cfg.Start, cfg.Duration, simtime.Day)
	if len(snaps) != 2 {
		t.Fatalf("%d snapshots, want 2", len(snaps))
	}
	for i, s := range snaps {
		if s.Start != cfg.Start.Add(simtime.Duration(i)*simtime.Day) {
			t.Errorf("snapshot %d start %v", i, s.Start)
		}
	}
	// Interval vectors exist in both days (continuous activity).
	if len(snaps[0].Vectors) == 0 || len(snaps[1].Vectors) == 0 {
		t.Error("daily snapshots empty")
	}
}

// TestSnapIntervalsOneInterval: an interval that holds every record
// snapshots the records as given, exactly as Snap does; one that leaves a
// record out drops it, as the copying path does for several intervals.
func TestSnapIntervalsOneInterval(t *testing.T) {
	f := getFixture(t)
	cfg := f.w.Cfg
	recs := f.w.National["jp"].Records()
	whole := SnapIntervals(recs, f.x, cfg.Start, cfg.Duration, cfg.Duration)
	if len(whole) != 1 || !reflect.DeepEqual(whole[0].Vectors, f.snap.Vectors) {
		t.Error("one whole-span interval differs from Snap over the same records")
	}
	var day1 []dnslog.Record
	for _, r := range recs {
		if r.Time.Before(cfg.Start.Add(simtime.Day)) {
			day1 = append(day1, r)
		}
	}
	if len(day1) == len(recs) {
		t.Fatal("fixture has no record past its first day")
	}
	got := SnapIntervals(recs, f.x, cfg.Start, simtime.Day, simtime.Day)
	want := Snap(day1, f.x, cfg.Start, simtime.Day)
	if len(got) != 1 || !reflect.DeepEqual(got[0].Vectors, want.Vectors) {
		t.Error("records past the one interval reached its snapshot")
	}
}

func TestStrategyNames(t *testing.T) {
	if TrainOnce.String() != "train-once" || RetrainDaily.String() != "train-daily" ||
		AutoGrow.String() != "auto-grow" || ManualRecuration.String() != "manual-recuration" {
		t.Error("strategy names wrong")
	}
	if Strategy(99).String() != "unknown" {
		t.Error("unknown strategy name")
	}
}

func TestStrategiesProducePoints(t *testing.T) {
	f := getFixture(t)
	cfg := f.w.Cfg
	snaps := SnapIntervals(f.w.National["jp"].Records(), f.x, cfg.Start, cfg.Duration, simtime.Day)
	for _, strat := range []Strategy{TrainOnce, RetrainDaily, AutoGrow} {
		run := &StrategyRun{Pipeline: NewPipeline(), Strategy: strat, CurationIndex: 0}
		pts := run.Run(snaps, f.labels, f.labels, rng.New(3))
		if len(pts) != len(snaps) {
			t.Fatalf("%v: %d points", strat, len(pts))
		}
		trained := 0
		for _, p := range pts {
			if p.Trained {
				trained++
				if p.F1 <= 0 || p.Evaluated == 0 {
					t.Errorf("%v: trained point with empty metrics: %+v", strat, p)
				}
			}
		}
		if trained == 0 {
			t.Errorf("%v: never trained", strat)
		}
	}
}

func TestManualRecurationStrategy(t *testing.T) {
	f := getFixture(t)
	cfg := f.w.Cfg
	snaps := SnapIntervals(f.w.National["jp"].Records(), f.x, cfg.Start, cfg.Duration, simtime.Day)
	cur := groundtruth.DefaultCuration()
	cur.LabelNoise = 0
	run := &StrategyRun{
		Pipeline:      NewPipeline(),
		Strategy:      ManualRecuration,
		CurationIndex: 0,
		RecurateEvery: 1,
		Oracle:        f.oracle,
		Curation:      cur,
	}
	pts := run.Run(snaps, f.labels, f.labels, rng.New(3))
	for i, p := range pts {
		if !p.Trained {
			t.Errorf("interval %d untrained under recuration", i)
		}
	}
}

func TestCountReappearances(t *testing.T) {
	f := getFixture(t)
	cfg := f.w.Cfg
	snaps := SnapIntervals(f.w.National["jp"].Records(), f.x, cfg.Start, cfg.Duration, simtime.Day)
	counts := CountReappearances(snaps, f.labels)
	if len(counts) != len(snaps) {
		t.Fatal("length mismatch")
	}
	for i, c := range counts {
		if c.Benign+c.Malicious == 0 {
			t.Errorf("interval %d: no reappearing examples", i)
		}
		if c.Start != snaps[i].Start {
			t.Errorf("interval %d start mismatch", i)
		}
	}
}
