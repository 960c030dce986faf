package main

import (
	"bytes"
	"math"

	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/classify"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
)

// logWorkload is log-classify: one repetition is the paper's Figure 2
// pipeline from log text — parse, dedup/filter/extract over the whole
// span and per six-hour interval, train a five-vote forest, validate it
// on the paper's repeated random splits, classify every snapshot. The
// simulator only runs in set-up.
type logWorkload struct {
	ds       *backscatter.Dataset
	text     []byte // the dataset's records as a TSV log
	runs     int
	verdicts map[ipaddr.Addr]activity.Class // whole-span verdicts of the last repetition
}

func (w *logWorkload) prepare(seed uint64, sz sizes) error {
	w.ds = backscatter.Build(seeded(backscatter.MDitl().Scaled(sz.ditlScale), seed))
	w.runs = sz.validateRuns
	var buf bytes.Buffer
	if err := backscatter.WriteLog(&buf, w.ds.Records); err != nil {
		return err
	}
	w.text = buf.Bytes()
	return nil
}

func (w *logWorkload) items() int { return len(w.ds.Records) }

func (w *logWorkload) rep(sp *spans) (uint64, error) {
	spec := w.ds.Spec
	var recs []dnslog.Record
	var err error
	sp.do("dnslog.parse", func() { recs, err = dnslog.NewReader(bytes.NewReader(w.text)).ReadAll() })
	if err != nil {
		return 0, err
	}
	var whole *classify.Snapshot
	sp.do("features.extract", func() { whole = classify.Snap(recs, w.ds.Extractor, spec.Start, spec.Duration) })
	var snaps []*classify.Snapshot
	sp.do("classify.snap_intervals", func() {
		snaps = classify.SnapIntervals(recs, w.ds.Extractor, spec.Start, spec.Duration, 6*simtime.Hour)
	})
	var model *backscatter.Model
	sp.do("ml.train", func() { model, err = w.ds.TrainWith(backscatter.AlgRandomForest, 5, w.ds.Labels) })
	if err != nil {
		return 0, err
	}
	var val backscatter.ValidationResult
	sp.do("ml.validate", func() { val, err = w.ds.Validate(backscatter.AlgRandomForest, 0.6, w.runs) })
	if err != nil {
		return 0, err
	}
	d := newDigester()
	sp.do("classify.classify_all", func() {
		w.verdicts = model.ClassifyAll(whole)
		d.verdicts(w.verdicts)
		for _, s := range snaps {
			d.verdicts(model.ClassifyAll(s))
		}
	})
	d.u64(uint64(len(recs)))
	d.u64(math.Float64bits(val.Accuracy.Mean))
	return d.sum(), nil
}

func (w *logWorkload) quality() (float64, int, error) {
	share, n := accuracy(w.verdicts, w.ds.TruthMap())
	return share, n, nil
}

func (w *logWorkload) layers(self []map[string]float64, sz sizes, m map[string]float64) error {
	n := float64(len(w.ds.Records))
	parse, _ := medianSelf(self, "dnslog.parse")
	m["dnslog.parse_ns_per_record"] = parse * 1e9 / n
	m["features.extract_ns_per_record"] = m["features.extract_s"] * 1e9 / n
	m["features.vectors"] = float64(len(w.ds.Whole().Vectors))

	var kept int
	m["dnslog.dedup_ns_per_record"] = timeLoop(1, func(int) {
		kept = len(dnslog.Dedup(w.ds.Records, 30*simtime.Second))
	}) / n
	m["dnslog.dedup_kept_share"] = float64(kept) / n

	model, err := w.ds.TrainClassifier(1)
	if err != nil {
		return err
	}
	vectors := w.ds.Whole().Vectors
	m["ml.predict_ns_per_vector"] = timeLoop(sz.microOps/16, func(i int) { model.Classify(vectors[i%len(vectors)]) })
	return nil
}
