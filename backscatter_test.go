package backscatter

import (
	"bytes"
	"sync"
	"testing"
)

// tinyDS builds one small JP dataset shared across root-package tests.
var (
	tinyOnce sync.Once
	tinyDS   *Dataset
)

func tiny(t *testing.T) *Dataset {
	t.Helper()
	tinyOnce.Do(func() {
		spec := JPDitl().Scaled(0.6)
		spec.Duration = Duration(24 * 3600)
		spec.Interval = spec.Duration
		spec.MinQueriers = 10
		tinyDS = Build(spec)
	})
	return tinyDS
}

func TestBuildDataset(t *testing.T) {
	d := tiny(t)
	if len(d.Records) == 0 {
		t.Fatal("no records collected")
	}
	if len(d.Snapshots) != 1 {
		t.Fatalf("%d snapshots, want 1", len(d.Snapshots))
	}
	if len(d.Whole().Vectors) < 20 {
		t.Fatalf("only %d analyzable originators", len(d.Whole().Vectors))
	}
	if d.Labels.Total() < 30 {
		t.Fatalf("only %d labels curated", d.Labels.Total())
	}
	if d.ReverseQueries() == 0 {
		t.Error("ReverseQueries zero")
	}
}

func TestTruthAccessors(t *testing.T) {
	d := tiny(t)
	tm := d.TruthMap()
	if len(tm) == 0 {
		t.Fatal("empty truth map")
	}
	for a, cls := range tm {
		got, ok := d.Truth(a)
		if !ok || got != cls {
			t.Fatalf("Truth(%v) inconsistent", a)
		}
		break
	}
	if _, ok := d.Truth(Addr(0)); ok {
		t.Error("Truth for address 0 should not exist")
	}
}

func TestTrainAndClassify(t *testing.T) {
	d := tiny(t)
	m, err := d.TrainClassifier(1)
	if err != nil {
		t.Fatal(err)
	}
	all := m.ClassifyAll(d.Whole())
	if len(all) != len(d.Whole().Vectors) {
		t.Error("not all originators classified")
	}
	// Agreement with truth well above the 1/12 chance level.
	agree, n := 0, 0
	for a, cls := range all {
		truth, ok := d.Truth(a)
		if !ok {
			continue
		}
		n++
		if truth == cls {
			agree++
		}
	}
	if n == 0 {
		t.Fatal("no classified originators had truth")
	}
	if frac := float64(agree) / float64(n); frac < 0.4 {
		t.Errorf("truth agreement = %.2f, want well above chance", frac)
	}
}

func TestValidateAlgorithms(t *testing.T) {
	d := tiny(t)
	var prev float64
	for _, alg := range []Algorithm{AlgCART, AlgRandomForest} {
		res, err := d.Validate(alg, 0.6, 3)
		if err != nil {
			t.Fatalf("%v: %v", alg, err)
		}
		if res.Accuracy.Mean <= 0.2 {
			t.Errorf("%v accuracy = %v", alg, res.Accuracy.Mean)
		}
		prev = res.Accuracy.Mean
	}
	_ = prev
}

func TestFeatureImportance(t *testing.T) {
	d := tiny(t)
	names, vals, err := d.FeatureImportance(6)
	if err != nil {
		t.Fatal(err)
	}
	if len(names) != 6 || len(vals) != 6 {
		t.Fatalf("got %d/%d entries", len(names), len(vals))
	}
	for i := 1; i < len(vals); i++ {
		if vals[i] > vals[i-1] {
			t.Error("importances not descending")
		}
	}
}

func TestLogRoundTrip(t *testing.T) {
	d := tiny(t)
	var buf bytes.Buffer
	if err := WriteLog(&buf, d.Records[:100]); err != nil {
		t.Fatal(err)
	}
	got, err := ReadLog(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 100 {
		t.Fatalf("read %d records", len(got))
	}
	for i := range got {
		if got[i] != d.Records[i] {
			t.Fatalf("record %d mismatch", i)
		}
	}
}

func TestSpecConstructors(t *testing.T) {
	specs := []DatasetSpec{JPDitl(), BPostDitl(), MDitl(), MDitl2015(), MSampled(), BLong(), BMultiYear()}
	names := map[string]bool{}
	for _, s := range specs {
		if s.Name == "" || s.Duration <= 0 || s.Interval <= 0 {
			t.Errorf("spec %q malformed: %+v", s.Name, s)
		}
		if names[s.Name] {
			t.Errorf("duplicate spec name %q", s.Name)
		}
		names[s.Name] = true
		if s.Authority != "jp" && s.Authority != "b-root" && s.Authority != "m-root" {
			t.Errorf("spec %q has bad authority %q", s.Name, s.Authority)
		}
	}
	if MSampled().Sample != 10 {
		t.Error("M-sampled must sample 1:10")
	}
	if !MSampled().Heartbleed {
		t.Error("M-sampled must cover Heartbleed")
	}
}

func TestScaled(t *testing.T) {
	s := JPDitl()
	half := s.Scaled(0.5)
	if half.Scale != s.Scale*0.5 {
		t.Error("Scaled wrong")
	}
}

func TestPublicHelpers(t *testing.T) {
	a, err := ParseAddr("192.0.2.7")
	if err != nil || a.String() != "192.0.2.7" {
		t.Error("ParseAddr broken")
	}
	if cls, ok := ParseClass("spam"); !ok || cls != Spam {
		t.Error("ParseClass broken")
	}
	if ClassifyName("mail.example.jp").String() != "mail" {
		t.Error("ClassifyName broken")
	}
	if len(FeatureNames()) == 0 {
		t.Error("FeatureNames empty")
	}
	if Date(2014, 4, 7, 0, 0).String() != "2014-04-07T00:00:00Z" {
		t.Error("Date broken")
	}
}

func TestBuildDeterministic(t *testing.T) {
	spec := JPDitl().Scaled(0.2)
	spec.Duration = Duration(12 * 3600)
	spec.Interval = spec.Duration
	spec.MinQueriers = 5
	a, b := Build(spec), Build(spec)
	if len(a.Records) != len(b.Records) {
		t.Fatalf("record counts differ: %d vs %d", len(a.Records), len(b.Records))
	}
	if a.Labels.Total() != b.Labels.Total() {
		t.Error("curations differ")
	}
}

func TestBuildPanicsOnBadAuthority(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("bad authority did not panic")
		}
	}()
	s := JPDitl().Scaled(0.05)
	s.Authority = "x-root"
	s.Duration = Duration(3600)
	Build(s)
}

// TestBuildRejectsNonPositiveInterval: a spec that cannot be cut into
// intervals is refused before anything is simulated, by name.
func TestBuildRejectsNonPositiveInterval(t *testing.T) {
	for _, iv := range []Duration{0, -3600} {
		func() {
			defer func() {
				if got := recover(); got != "backscatter: Interval must be positive" {
					t.Errorf("Interval %d: recovered %v", iv, got)
				}
			}()
			s := MDitl().Scaled(0.05)
			s.Interval = iv
			Build(s)
		}()
	}
}

// TestCaptureRoundTripPipeline drives the full operational loop: simulate,
// serialize to the wire-capture format, parse back, and verify the
// classification pipeline sees identical data.
func TestCaptureRoundTripPipeline(t *testing.T) {
	d := tiny(t)
	var buf bytes.Buffer
	if err := WriteCapture(&buf, d.Records); err != nil {
		t.Fatal(err)
	}
	got, err := ReadCapture(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(d.Records) {
		t.Fatalf("capture round trip lost records: %d of %d", len(got), len(d.Records))
	}
	for i := range got {
		if got[i] != d.Records[i] {
			t.Fatalf("record %d differs after wire round trip", i)
		}
	}
}
