package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"time"

	"dnsbackscatter/cmd/bsperf/stats"
)

// sizes are the workload dimensions: literal constants, identical on
// every commit, so two commits always measure the same work. The smoke
// set exists for the package's own test and measures nothing.
type sizes struct {
	simScale     float64 // Scaled factor of MSampled (sim-longitudinal)
	simDays      int     // simulated days of it: the paper row's 36 weeks
	ditlScale    float64 // Scaled factor of MDitl (log-classify, stream-replay)
	validateRuns int     // random splits per log-classify repetition
	microOps     int     // iterations of each per-layer timed loop
	setupReps    int     // preparations per run; setup_s is their median
	minReps      int     // repetitions measured even when time is up
	traceReps    int     // the same for a traced run's plain and traced pairs
}

// The full sizes make one repetition of each in-process workload a
// little over 2 s on the reference box, so the default 20 s timed phase
// holds the nine or ten repetitions a median needs.
var (
	fullSizes  = sizes{simScale: 0.08, simDays: 252, ditlScale: 4, validateRuns: 90, microOps: 1 << 20, setupReps: 3, minReps: 9, traceReps: 3}
	smokeSizes = sizes{simScale: 0.04, simDays: 28, ditlScale: 0.3, validateRuns: 2, microOps: 1 << 10, setupReps: 1, minReps: 1, traceReps: 1}
)

const (
	// procs pins GOMAXPROCS and every Workers knob: the reference box
	// has two cores, and a wider pool would measure the scheduler.
	procs = 2
	// batchRecords is stream-replay's Ingest call size.
	batchRecords = 1024
)

// batch is an in-process workload: inputs prepared untimed from the
// seed, then one repetition run over and over.
type batch interface {
	// prepare builds every input from the seed, once per value.
	prepare(seed uint64, sz sizes) error
	// items is how many items one repetition processes.
	items() int
	// rep runs one repetition and digests its outputs. With spans it
	// records each call into a layer; the work is the same.
	rep(sp *spans) (uint64, error)
	// quality scores the last repetition's verdicts against ground
	// truth, untimed, and counts them.
	quality() (share float64, verdicts int, err error)
	// layers adds the workload's own per-layer readings after a traced
	// run: counts, shares, and timed loops over single layers.
	layers(self []map[string]float64, sz sizes, m map[string]float64) error
}

// repStat is one timed repetition.
type repStat struct {
	wall   float64 // seconds
	digest uint64
	cost   usage
}

// timeRep collects garbage untimed, then times one repetition.
func timeRep(b batch, sp *spans) (repStat, error) {
	runtime.GC()
	var r repStat
	var err error
	u0 := readUsage()
	t0 := time.Now()
	sp.do("rep", func() { r.digest, err = b.rep(sp) })
	r.wall = time.Since(t0).Seconds()
	r.cost = readUsage().since(u0)
	sp.nextRep()
	return r, err
}

// repLoop runs body until d has passed and at least minReps times.
func repLoop(ctx context.Context, d time.Duration, minReps int, body func()) error {
	deadline := time.Now().Add(d)
	for n := 0; n < minReps || time.Now().Before(deadline); n++ {
		if err := ctx.Err(); err != nil {
			return err
		}
		body()
	}
	return nil
}

// checkRep tallies one repetition against the digest of the first: a
// repetition that errors or whose outputs differ breaks the determinism
// contract and counts as failed.
func checkRep(o *outcome, want uint64, r repStat, err error) bool {
	o.attempted++
	switch {
	case err != nil:
		o.failf("repetition %d: %v", o.attempted, err)
	case r.digest != want:
		o.failf("repetition %d: output digest %#x differs from the first repetition's %#x", o.attempted, r.digest, want)
	default:
		return true
	}
	o.failed++
	return false
}

// checkQuality scores the last repetition and applies the floor.
func checkQuality(o *outcome, b batch, floor float64) {
	share, verdicts, err := b.quality()
	switch {
	case err != nil:
		o.failf("quality: %v", err)
	case verdicts == 0:
		o.failf("the verdict set is empty")
	case share < floor:
		o.failf("quality %.4f is below the floor %.2f", share, floor)
	}
	o.readings["quality"] = share
}

// measureBatch is the untraced run: setupReps preparations, one
// discarded warm-up repetition, then timed repetitions for cfg.seconds.
// Every timing it reports is a median over repetitions or preparations.
func measureBatch(ctx context.Context, info workload, cfg config, log io.Writer) (*outcome, error) {
	o := &outcome{readings: make(map[string]float64)}
	var b batch
	var setups []float64
	for i := 0; i < cfg.sizes.setupReps; i++ {
		// A fresh workload each time, and the last one collected before
		// the clock starts: peak memory is one set of inputs and not, at
		// the collector's whim, two.
		b = info.batch()
		runtime.GC()
		t0 := time.Now()
		if err := b.prepare(cfg.seed, cfg.sizes); err != nil {
			return nil, err
		}
		setups = append(setups, time.Since(t0).Seconds())
	}
	warm, err := timeRep(b, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up repetition: %w", err)
	}
	var walls []float64
	err = repLoop(ctx, cfg.duration(), cfg.sizes.minReps, func() {
		r, err := timeRep(b, nil)
		if checkRep(o, warm.digest, r, err) {
			walls = append(walls, r.wall)
		}
	})
	if err != nil {
		return nil, err
	}
	checkQuality(o, b, info.floor)

	wall := stats.Median(walls)
	fmt.Fprintf(log, "# %s: %d repetitions of %d items, median %.3f s, spread %.3f, digest %#x\n",
		info.name, len(walls), b.items(), wall, stats.Spread(walls), warm.digest)
	o.readings["setup_s"] = stats.Median(setups)
	if wall > 0 {
		o.readings["throughput_per_s"] = float64(b.items()) / wall
	}
	if o.readings["peak_rss_mb"], err = peakRSSMB(0); err != nil {
		return nil, err
	}
	return o, nil
}

// spanMetrics maps a span name to the per-layer metric that reports its
// median self time.
var spanMetrics = map[string]string{
	"world.run":               "world.run_s",
	"classify.snap_intervals": "classify.snap_intervals_s",
	"groundtruth.curate":      "groundtruth.curate_s",
	"features.extract":        "features.extract_s",
	"ml.train":                "ml.train_s",
	"ml.validate":             "ml.validate_s",
	"classify.classify_all":   "classify.classify_all_s",
	"stream.tick":             "stream.tick_s",
	"stream.snapshot":         "stream.snapshot_s",
}

// traceBatch is the traced run: one preparation and warm-up, then plain
// and traced repetitions interleaved (so box drift cancels out of the
// overhead figure), then the workload's per-layer loops. It writes the
// spans to bsperf-trace-<workload>.json in the work directory.
func traceBatch(ctx context.Context, info workload, cfg config, log io.Writer) (*outcome, error) {
	o := &outcome{readings: make(map[string]float64)}
	b := info.batch()
	if err := b.prepare(cfg.seed, cfg.sizes); err != nil {
		return nil, err
	}
	warm, err := timeRep(b, nil)
	if err != nil {
		return nil, fmt.Errorf("warm-up repetition: %w", err)
	}
	sp := newSpans()
	var plain, traced []float64
	var cost usage
	err = repLoop(ctx, cfg.duration(), cfg.sizes.traceReps, func() {
		r, err := timeRep(b, nil)
		if checkRep(o, warm.digest, r, err) {
			plain = append(plain, r.wall)
			cost.add(r.cost)
		}
		r, err = timeRep(b, sp)
		if checkRep(o, warm.digest, r, err) {
			traced = append(traced, r.wall)
		}
	})
	if err != nil {
		return nil, err
	}
	checkQuality(o, b, info.floor)

	m := o.readings
	self := sp.selfTimes()
	for name, metric := range spanMetrics {
		if s, ok := medianSelf(self, name); ok {
			m[metric] = s
		}
	}
	unattributed := make([]float64, len(self))
	for i, rep := range self {
		var total float64
		for _, s := range rep {
			total += s
		}
		if total > 0 {
			unattributed[i] = rep["rep"] / total
		}
	}
	m["trace.unattributed_share"] = stats.Median(unattributed)
	pw, tw := stats.Median(plain), stats.Median(traced)
	if pw > 0 && tw > 0 {
		m["trace.overhead_share"] = (tw - pw) / pw
		if run, ok := m["world.run_s"]; ok {
			m["world.run_share"] = run / tw
		}
	}
	if items := float64(len(plain) * b.items()); items > 0 {
		m["proc.cpu_us_per_item"] = cost.cpu * 1e6 / items
		m["proc.alloc_bytes_per_item"] = float64(cost.alloc) / items
		m["proc.mallocs_per_item"] = float64(cost.mallocs) / items
	}
	m["proc.gc_cycles"] = float64(cost.gcs)
	m["proc.gc_pause_ms"] = float64(cost.pauseNs) / 1e6
	m["proc.first_rep_s"] = warm.wall
	m["proc.rep_wall_s"] = pw
	m["proc.rep_spread"] = stats.Spread(plain)
	m["proc.reps"] = float64(len(plain))
	if o.attempted > 0 {
		m["fail_share"] = float64(o.failed) / float64(o.attempted)
	}
	if err := b.layers(self, cfg.sizes, m); err != nil {
		return nil, err
	}
	path := filepath.Join(cfg.dir, "bsperf-trace-"+info.name+".json")
	if err := sp.write(path, info.name, cfg.seed); err != nil {
		return nil, err
	}
	fmt.Fprintf(log, "# %s: %d plain + %d traced repetitions, %d spans in %s\n",
		info.name, len(plain), len(traced), len(sp.all), path)
	return o, nil
}

// timeLoop returns the nanoseconds one call of op takes, averaged over n
// calls; the per-layer loops time single public calls with it.
func timeLoop(n int, op func(i int)) float64 {
	t0 := time.Now()
	for i := 0; i < n; i++ {
		op(i)
	}
	return float64(time.Since(t0)) / float64(n)
}
