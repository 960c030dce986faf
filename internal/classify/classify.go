// Package classify implements the sensor pipeline of Figure 2: interval
// logs → deduplication → analyzable originators → feature vectors →
// trained classifier → application classes, plus the training-over-time
// strategies of §III-E / §V (train once, retrain daily on fresh features,
// automatically grow the labeled set, and recurring expert curation).
package classify

import (
	"errors"
	"fmt"
	"sort"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/groundtruth"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/ml"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/parallel"
	"dnsbackscatter/internal/prof"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

// Snapshot is one observation interval's extracted view: the feature
// vector of every analyzable originator.
type Snapshot struct {
	Start   simtime.Time
	Dur     simtime.Duration
	Vectors []*features.Vector

	byOrig map[ipaddr.Addr]*features.Vector
}

// Snap extracts a snapshot from interval records.
func Snap(recs []dnslog.Record, x *features.Extractor, start simtime.Time, dur simtime.Duration) *Snapshot {
	s := &Snapshot{Start: start, Dur: dur, Vectors: x.Extract(recs, start, dur)}
	s.index()
	return s
}

func (s *Snapshot) index() {
	s.byOrig = make(map[ipaddr.Addr]*features.Vector, len(s.Vectors))
	for _, v := range s.Vectors {
		s.byOrig[v.Originator] = v
	}
}

// Vector returns the snapshot's vector for an originator, if analyzable.
func (s *Snapshot) Vector(a ipaddr.Addr) (*features.Vector, bool) {
	v, ok := s.byOrig[a]
	return v, ok
}

// Ranked returns originator addresses by descending footprint.
func (s *Snapshot) Ranked() []ipaddr.Addr {
	out := make([]ipaddr.Addr, len(s.Vectors))
	for i, v := range s.Vectors {
		out[i] = v.Originator
	}
	return out
}

// SnapIntervals splits a time-ordered record stream into consecutive
// intervals of length dur starting at start and snapshots each. Intervals
// with no analyzable originator still appear (empty), so time series stay
// aligned. dur must be positive.
func SnapIntervals(recs []dnslog.Record, x *features.Extractor, start simtime.Time, total, dur simtime.Duration) []*Snapshot {
	n := int((total + dur - 1) / dur)
	// Two passes — count, prefix-sum, fill — partition the records into
	// one exact-size backing array instead of n growing appends. Fill
	// order follows the stream, so each bucket keeps the per-pair time
	// order dedup depends on.
	counts := make([]int, n+1)
	bucketOf := func(r *dnslog.Record) int {
		i := int(r.Time.Sub(start) / dur)
		if i < 0 || i >= n {
			return -1
		}
		return i
	}
	total2 := 0
	for i := range recs {
		if b := bucketOf(&recs[i]); b >= 0 {
			counts[b]++
			total2++
		}
	}
	// One interval that holds every record is cut in place: the records
	// are already the interval's.
	if n == 1 && total2 == len(recs) {
		return []*Snapshot{Snap(recs, x, start, dur)}
	}
	offs := make([]int, n+1)
	for i := 0; i < n; i++ {
		offs[i+1] = offs[i] + counts[i]
	}
	buf := make([]dnslog.Record, total2)
	pos := make([]int, n)
	copy(pos, offs[:n])
	for i := range recs {
		if b := bucketOf(&recs[i]); b >= 0 {
			buf[pos[b]] = recs[i]
			pos[b]++
		}
	}
	out := make([]*Snapshot, n)
	for i := 0; i < n; i++ {
		out[i] = Snap(buf[offs[i]:offs[i+1]], x, start.Add(simtime.Duration(i)*dur), dur)
	}
	return out
}

// Pipeline holds the classification configuration.
type Pipeline struct {
	Trainer ml.Trainer
	// Votes > 1 trains that many instances and majority-votes them —
	// the paper's 10-run rule for nondeterministic algorithms.
	Votes int
	// MinPerClass is the minimum labeled examples a class needs to enter
	// training; classes below it are dropped (the paper requires ~20 but
	// trains with less for sparse classes).
	MinPerClass int
	// MinClasses is the minimum distinct trainable classes; below it
	// training fails (§V-C observes such failures).
	MinClasses int
	// Obs, when non-nil, times the train and classify stages of the
	// Figure 2 pipeline (trained models inherit it) and counts
	// classifications (pipeline_classified_total).
	Obs *obs.Registry
	// Workers bounds training and classification goroutines; <= 0 uses
	// GOMAXPROCS(0) and 1 runs sequentially. Trained models and their
	// classifications are byte-identical for every worker count.
	Workers int
	// Acct, when non-nil, accumulates train/classify resource accounting
	// on the ops channel (trained models inherit it); see internal/prof.
	Acct *prof.Accountant
}

// NewPipeline returns a pipeline with the paper's defaults: Random Forest
// with majority voting over 10 runs.
func NewPipeline() *Pipeline {
	return &Pipeline{
		Trainer:     ml.Forest{Config: ml.ForestConfig{Trees: 60}},
		Votes:       1,
		MinPerClass: 3,
		MinClasses:  2,
	}
}

// ErrTooFewExamples reports an untrainable labeled snapshot.
var ErrTooFewExamples = errors.New("classify: too few labeled examples to train")

// Model is a trained originator classifier.
type Model struct {
	clf     ml.Classifier
	obs     *obs.Registry    // inherited from the training pipeline; may be nil
	acct    *prof.Accountant // inherited from the training pipeline; may be nil
	workers int              // inherited from the training pipeline
}

// TrainingSet assembles the ml design matrix from labels that re-appear in
// the snapshot (only originators with current feature vectors can train).
// It returns the matrix and the addresses in row order.
func (p *Pipeline) TrainingSet(s *Snapshot, labels *groundtruth.LabeledSet) (*ml.Dataset, []ipaddr.Addr, error) {
	minPer := p.MinPerClass
	if minPer < 1 {
		minPer = 1
	}
	// Count labeled examples present in this snapshot.
	var present [activity.NumClasses][]ipaddr.Addr
	for a, cls := range labels.Labels {
		if _, ok := s.Vector(a); ok {
			present[cls] = append(present[cls], a)
		}
	}
	var rows [][]float64
	var ys []int
	var addrs []ipaddr.Addr
	classes := 0
	for cls := range present {
		if len(present[cls]) < minPer {
			continue
		}
		classes++
		sort.Slice(present[cls], func(i, j int) bool { return present[cls][i] < present[cls][j] })
		for _, a := range present[cls] {
			v, _ := s.Vector(a)
			rows = append(rows, v.X[:])
			ys = append(ys, cls)
			addrs = append(addrs, a)
		}
	}
	if classes < max(2, p.MinClasses) {
		return nil, nil, fmt.Errorf("%w: %d trainable classes, %d rows", ErrTooFewExamples, classes, len(rows))
	}
	ds, err := ml.NewDataset(rows, ys, int(activity.NumClasses))
	if err != nil {
		return nil, nil, err
	}
	return ds, addrs, nil
}

// trainer returns p.Trainer with the pipeline's parallelism and
// instrumentation threaded into trainers that support them (Random
// Forest); explicit per-trainer settings win.
func (p *Pipeline) trainer() ml.Trainer {
	if f, ok := p.Trainer.(ml.Forest); ok {
		if f.Config.Workers == 0 {
			f.Config.Workers = p.Workers
		}
		if f.Config.Obs == nil {
			f.Config.Obs = p.Obs
		}
		if f.Config.Acct == nil {
			f.Config.Acct = p.Acct
		}
		return f
	}
	return p.Trainer
}

// Train fits a model on the labels as observed in snapshot s.
func (p *Pipeline) Train(s *Snapshot, labels *groundtruth.LabeledSet, st *rng.Stream) (*Model, error) {
	sp := p.Obs.StartSpan("train")
	defer sp.End()
	ds, _, err := p.TrainingSet(s, labels)
	if err != nil {
		return nil, err
	}
	tr := p.trainer()
	if p.Votes > 1 {
		clf := ml.TrainMajorityWorkers(tr, ds, p.Votes, p.Workers, st)
		return &Model{clf: clf, obs: p.Obs, acct: p.Acct, workers: p.Workers}, nil
	}
	return &Model{clf: tr.Train(ds, st), obs: p.Obs, acct: p.Acct, workers: p.Workers}, nil
}

// Classify labels one feature vector.
func (m *Model) Classify(v *features.Vector) activity.Class {
	return activity.Class(m.clf.Predict(v.X[:]))
}

// ClassifyBatch labels vs into classes, in one ml.PredictBatch across the
// pipeline's workers: a stream engine's epoch (stream.Scorer). It records
// nothing; the labels are identical for every worker count.
func (m *Model) ClassifyBatch(vs []*features.Vector, classes []activity.Class) {
	for i, pred := range m.predict(vs, parallel.Pool{Workers: m.workers}) {
		classes[i] = activity.Class(pred)
	}
}

// predict runs vs through ml.PredictBatch under pool.
func (m *Model) predict(vs []*features.Vector, pool parallel.Pool) []int {
	rows := make([][]float64, len(vs))
	for i, v := range vs {
		rows[i] = v.X[:]
	}
	return ml.PredictBatch(m.clf, rows, nil, pool)
}

// ClassifyAll labels every analyzable originator in the snapshot — the
// final stage of the Figure 2 pipeline, timed under the "classify" span
// when the training pipeline was instrumented. Originators are predicted
// in parallel across the pipeline's workers (batch prediction only reads
// trained state); the label map is identical for every worker count.
func (m *Model) ClassifyAll(s *Snapshot) map[ipaddr.Addr]activity.Class {
	sp := m.obs.StartSpan("classify")
	tok := m.acct.Start("classify")
	preds := m.predict(s.Vectors, parallel.Pool{Workers: m.workers, Obs: m.obs, Stage: "classify", Acct: m.acct})
	out := make(map[ipaddr.Addr]activity.Class, len(s.Vectors))
	for i, v := range s.Vectors {
		out[v.Originator] = activity.Class(preds[i])
	}
	tok.End()
	sp.End()
	m.obs.Counter("pipeline_classified_total").Add(uint64(len(out)))
	return out
}

// EvaluateOn scores the model against labeled examples that re-appear in
// the snapshot — the paper's long-term validation method (§V-B): labels
// are fixed, features are recomputed from the day under test.
func (m *Model) EvaluateOn(s *Snapshot, labels *groundtruth.LabeledSet) (ml.Metrics, int) {
	conf := ml.NewConfusion(int(activity.NumClasses))
	n := 0
	for a, cls := range labels.Labels {
		v, ok := s.Vector(a)
		if !ok {
			continue
		}
		conf.Add(int(cls), int(m.Classify(v)))
		n++
	}
	return conf.Score(), n
}
