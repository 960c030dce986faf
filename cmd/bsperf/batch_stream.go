package main

import (
	"time"

	backscatter "dnsbackscatter"

	"dnsbackscatter/cmd/bsperf/stats"
	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/hhh"
	"dnsbackscatter/internal/hll"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
)

// ingestCall is one timed Ingest call of a traced repetition.
type ingestCall struct {
	ns      float64
	records int
	rescore bool // the call crossed an epoch boundary and re-scored
	rep     int
}

// streamWorkload is stream-replay: one repetition replays the dataset's
// records, in time order and 1024-record Ingest calls, through a fresh
// streaming engine with hourly epochs, then ticks, reads verdicts and
// snapshots. Timestamps advance naturally, so dedup misses as it would
// in service.
type streamWorkload struct {
	ds    *backscatter.Dataset
	recs  []backscatter.Record // the dataset's records as a sensor emits them: by time
	model *backscatter.Model

	calls    []ingestCall
	reps     int
	verdicts map[ipaddr.Addr]activity.Class
	status   backscatter.StreamStatus
	snapshot int // bytes
}

func (w *streamWorkload) prepare(seed uint64, sz sizes) error {
	w.ds = backscatter.Build(seeded(backscatter.MDitl().Scaled(sz.ditlScale), seed))
	w.recs = arrivalOrder(w.ds)
	var err error
	w.model, err = w.ds.TrainClassifier(1)
	return err
}

func (w *streamWorkload) items() int { return len(w.recs) }

func (w *streamWorkload) newEngine() *backscatter.StreamEngine {
	return w.ds.NewStream(backscatter.StreamSpec{Epoch: simtime.Hour}, w.model)
}

func (w *streamWorkload) rep(sp *spans) (uint64, error) {
	recs := w.recs
	var e *backscatter.StreamEngine
	sp.do("stream.new", func() { e = w.newEngine() })
	epochs := 0
	for i := 0; i < len(recs); i += batchRecords {
		chunk := recs[i:min(i+batchRecords, len(recs))]
		if sp == nil {
			e.Ingest(chunk)
			continue
		}
		t0 := time.Now()
		sp.do("stream.ingest", func() { e.Ingest(chunk) })
		d := time.Since(t0)
		// Status is the only outside view of whether the call
		// re-scored; reading it is the traced run's overhead.
		now := e.Status().Epochs
		w.calls = append(w.calls, ingestCall{ns: float64(d), records: len(chunk), rescore: now != epochs, rep: w.reps})
		epochs = now
	}
	w.reps++
	sp.do("stream.tick", func() { e.Tick(w.ds.Spec.Start.Add(w.ds.Spec.Duration)) })
	sp.do("stream.verdicts", func() { w.verdicts = e.Verdicts() })
	var snap []byte
	sp.do("stream.snapshot", func() { snap = e.Snapshot() })
	w.status, w.snapshot = e.Status(), len(snap)

	d := newDigester()
	d.verdicts(w.verdicts)
	d.bytes(snap)
	return d.sum(), nil
}

func (w *streamWorkload) quality() (float64, int, error) {
	share, n := accuracy(w.verdicts, w.ds.TruthMap())
	return share, n, nil
}

func (w *streamWorkload) layers(self []map[string]float64, sz sizes, m map[string]float64) error {
	// Calls that did not cross an epoch are the ingest path; what a
	// crossing call costs beyond that rate is the re-score stall.
	var ingestNs, ingestRecs float64
	for _, c := range w.calls {
		if !c.rescore {
			ingestNs += c.ns
			ingestRecs += float64(c.records)
		}
	}
	if ingestRecs > 0 {
		m["stream.ingest_ns_per_record"] = ingestNs / ingestRecs
	}
	rescore := make(map[int]float64)
	var crossings int
	for _, c := range w.calls {
		if c.rescore {
			crossings++
			rescore[c.rep] += (c.ns - m["stream.ingest_ns_per_record"]*float64(c.records)) / 1e9
		}
	}
	var perRep []float64
	for _, s := range rescore {
		perRep = append(perRep, s)
	}
	m["stream.rescore_s"] = stats.Median(perRep)
	if len(rescore) > 0 {
		m["stream.rescore_count"] = float64(crossings / len(rescore))
	}
	lat := make([]float64, len(w.calls))
	for i, c := range w.calls {
		lat[i] = c.ns / 1e3
	}
	m["stream.call_p50_us"] = stats.Median(lat)
	// Reported only when ten calls lie beyond the 99th percentile.
	if v, ok := stats.Tail(lat, 99); ok {
		m["stream.batch_p99_us"] = v
	}
	m["stream.snapshot_bytes"] = float64(w.snapshot)
	if w.status.Records > 0 {
		m["stream.kept_share"] = float64(w.status.Kept) / float64(w.status.Records)
	}
	m["stream.tracked"] = float64(w.status.Tracked)
	m["stream.evictions"] = float64(w.status.Evictions)
	m["stream.epochs"] = float64(w.status.Epochs)

	// The per-packet path bsserve drives: one record per Ingest call.
	recs := w.recs[:min(len(w.recs), 100000)]
	e := w.newEngine()
	m["stream.ingest1_ns_per_record"] = timeLoop(len(recs), func(i int) { e.Ingest(recs[i : i+1 : i+1]) })

	sketch := hll.MustNew(11) // the engine's per-originator precision
	m["hll.add_ns"] = timeLoop(sz.microOps, func(i int) { sketch.Add(hll.Hash64(uint64(i))) })
	heavy := hhh.New(1024, w.ds.Spec.Seed)
	m["hhh.update_ns"] = timeLoop(sz.microOps, func(i int) { heavy.Add(w.recs[i%len(w.recs)].Originator, 1) })
	return nil
}
