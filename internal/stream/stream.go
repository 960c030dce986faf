// Package stream is the always-on classification engine: it consumes
// sensor tuples continuously and keeps every originator's evidence in
// bounded sketch memory, re-scoring the population at epoch ticks.
//
// The batch pipeline (features.Extractor → classify) holds exact
// per-originator state for one interval and exits; the paper's sensors
// see ~10^9 queries (Table I) from an originator population that can
// exceed any per-originator budget by orders of magnitude. The engine
// bounds all of it:
//
//   - a sliding dedup table per shard (last-seen pair slots, open
//     addressed), sized by the unexpired pairs it holds and bounded at
//     dedupMaxSlots, exact below the bound (see dedupTable),
//   - per-originator HLL + bottom-k sketches (internal/hll), capped at
//     MaxOriginators across 16 originator shards with deterministic
//     smallest-footprint eviction,
//   - hierarchical heavy-hitters sketches (internal/hhh) over both the
//     originator and querier address spaces, so mass evicted from the
//     per-originator table stays visible as prefix aggregates; each shard
//     buffers up to hhhRun kept records' addresses and folds them in.
//
// Determinism contract: for a given record sequence (same batching and
// order), snapshots and verdicts are byte-identical at any Workers
// value. Shard assignment is a fixed hash, per-shard ingest is
// sequential in stream order, cross-shard reads merge in fixed shard
// index order, and every emission is sorted. Worker count only changes
// how fast the 16 shards drain.
package stream

import (
	"cmp"
	"encoding/json"
	"slices"
	"strconv"
	"sync"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/hhh"
	"dnsbackscatter/internal/hll"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/parallel"
	"dnsbackscatter/internal/prof"
	"dnsbackscatter/internal/simtime"
)

// Scorer classifies one feature vector; *classify.Model satisfies it.
// Implementations must be safe for concurrent read-only use.
type Scorer interface {
	Classify(v *features.Vector) activity.Class
}

// Config parameterizes an Engine. Zero values take the documented
// defaults; Geo and CategoryOf are required, and both must be pure for the
// engine's lifetime: a querier's category is read once, when it enters an
// originator's sample, and its AS and country whenever a sample is
// summarized, so an answer that changed later would make a vector depend
// on when its originator was last touched.
type Config struct {
	// Geo resolves querier addresses to AS and country.
	Geo *geo.Registry
	// CategoryOf resolves querier name categories for static features. It
	// runs on the ingest workers, so it must be safe for concurrent use.
	CategoryOf features.CategoryFunc
	// Scorer, when non-nil, classifies analyzable originators at every
	// epoch tick. Nil keeps sketches without verdicts.
	Scorer Scorer
	// MinQueriers is the analyzability threshold on the HLL estimate
	// (default 20, the paper's §III-B threshold).
	MinQueriers int
	// DedupWindow suppresses repeat (originator, querier) pairs
	// (default 30 s). Below the dedup tables' bound, 2^20 slots (16 MiB)
	// engine-wide, a pair is remembered until its last sighting falls
	// DedupWindow + 1 h behind its shard's latest record, so a straggler
	// up to an hour late is still suppressed.
	DedupWindow simtime.Duration
	// SampleK is the bottom-k sample size per originator (default 256).
	SampleK int
	// MaxOriginators bounds tracked originators across all shards
	// (default 1 << 16). The hard bound is ceil(MaxOriginators/16)*16.
	MaxOriginators int
	// Epoch is the re-scoring cadence in simulated time (default 1 h).
	Epoch simtime.Duration
	// HHHCapacity is the per-level slot budget of the heavy-hitters
	// sketches (default 1024).
	HHHCapacity int
	// Seed drives every seeded hash in the engine (HHH tiebreaks).
	Seed uint64
	// Workers bounds re-scoring and ingest fan-out; output bytes are
	// identical for every value (see the package determinism contract).
	Workers int
	// Obs, when non-nil, receives engine counters; epoch-tick metrics
	// land in its Window as simtime series. Nil costs nothing.
	Obs *obs.Registry
	// Acct, when non-nil, accounts ingest/rescore resource usage on the
	// ops channel. Nil costs nothing.
	Acct *prof.Accountant
}

// engineShards is the fixed originator-shard count — the extractor's, so
// one partition routine serves both — independent of Workers so all
// intermediate state is worker-count invariant.
const engineShards = features.Shards

// agg is one originator's bounded evidence. Persistence uses a monotone
// bucket counter instead of a bucket set so state stays O(1) over
// unbounded streams; buckets arriving out of order behind the high-water
// bucket are not re-counted (a vanishing undercount on sensor feeds,
// which are near-ordered).
//
// est and summary cache what a re-score derives from the two sketches;
// ingest marks each stale when it changes the sketch under it, so an epoch
// pays for the originators that moved, not for every one tracked.
type agg struct {
	queriers   *hll.Sketch
	sample     *hll.BottomK[features.Sampled]
	queries    int
	lastBucket int
	nbuckets   int

	est          uint64
	summary      features.Summary
	estStale     bool
	summaryStale bool
}

// estimate returns the HLL footprint, recomputed only if a register rose
// since it was last read.
func (a *agg) estimate() uint64 {
	if a.estStale {
		a.est, a.estStale = a.queriers.Estimate(), false
	}
	return a.est
}

// hhhRun bounds a shard's buffered run of heavy-hitter addresses, 8 KiB
// a shard: long enough that a fold pays for its summary updates, not for
// bringing each level summary back into cache.
const hhhRun = 1024

// shard is one originator partition: its dedup table, its
// tracked originators, and its heavy-hitters views. Each shard is
// touched by exactly one worker per engine call.
type shard struct {
	dedup     dedupTable
	aggs      map[ipaddr.Addr]*agg
	cap       int
	hhhOrig   *hhh.Sketch
	hhhQry    *hhh.Sketch
	kept      uint64
	evictions uint64
	// origRun and qryRun hold the kept records' addresses not yet folded
	// into hhhOrig and hhhQry; their capacity is the run's bound.
	origRun, qryRun []ipaddr.Addr
}

// Engine is the streaming classifier. Create with New; all methods are
// safe for concurrent use (one coarse mutex — ingest batches and epoch
// ticks are the units of work, not single records).
type Engine struct {
	cfg Config

	mu     sync.Mutex
	shards [engineShards]*shard
	// partBuf backs ingestLocked's per-shard index runs; stats and norms
	// are rescoreLocked's gather and normalizer scratch, kept across
	// epochs. Guarded by mu.
	partBuf []int32
	stats   []features.SketchStats
	norms   features.NormScratch
	// epochStart is the current epoch's start (floored to Epoch);
	// watermark the maximum record time seen. Guarded by mu.
	epochStart simtime.Time
	watermark  simtime.Time
	started    bool
	startTime  simtime.Time
	epochs     int
	records    uint64
	// verdicts and vectors hold the last rescore's outputs, vectors in
	// canonical order. Guarded by mu.
	verdicts  map[ipaddr.Addr]activity.Class
	vectors   []*features.Vector
	lastScore simtime.Time
	churn     uint64
}

// New returns an engine for the given config, applying defaults.
func New(cfg Config) *Engine {
	if cfg.MinQueriers == 0 {
		cfg.MinQueriers = 20
	}
	if cfg.DedupWindow == 0 {
		cfg.DedupWindow = 30 * simtime.Second
	}
	if cfg.SampleK <= 0 {
		cfg.SampleK = 256
	}
	if cfg.MaxOriginators <= 0 {
		cfg.MaxOriginators = 1 << 16
	}
	if cfg.Epoch <= 0 {
		cfg.Epoch = simtime.Hour
	}
	if cfg.HHHCapacity <= 0 {
		cfg.HHHCapacity = 1024
	}
	e := &Engine{cfg: cfg, verdicts: make(map[ipaddr.Addr]activity.Class)}
	perShardCap := (cfg.MaxOriginators + engineShards - 1) / engineShards
	for s := range e.shards {
		e.shards[s] = &shard{
			dedup:   newDedupTable(),
			aggs:    make(map[ipaddr.Addr]*agg),
			cap:     perShardCap,
			hhhOrig: hhh.New(cfg.HHHCapacity, cfg.Seed),
			hhhQry:  hhh.New(cfg.HHHCapacity, cfg.Seed),
			origRun: make([]ipaddr.Addr, 0, hhhRun),
			qryRun:  make([]ipaddr.Addr, 0, hhhRun),
		}
	}
	return e
}

// Ingest feeds a batch of records through dedup into the sketches,
// firing an epoch re-score whenever a record's timestamp crosses the
// current epoch boundary. Records need not be globally ordered; the
// epoch clock only moves forward (a far-future record advances it, and
// stragglers behind it still land in the sketches).
func (e *Engine) Ingest(recs []dnslog.Record) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(recs) == 0 {
		return
	}
	if !e.started {
		e.started = true
		t := recs[0].Time
		e.epochStart = t - t%simtime.Time(e.cfg.Epoch)
		e.startTime = e.epochStart
		e.watermark = t
	}
	i := 0
	for i < len(recs) {
		end := e.epochStart + simtime.Time(e.cfg.Epoch)
		j := i
		for j < len(recs) && recs[j].Time < end {
			j++
		}
		e.ingestLocked(recs[i:j])
		if j == len(recs) {
			break
		}
		// recs[j] crossed the boundary: score the closing epoch, then
		// jump the clock to the record's epoch (a single far-future
		// record must not replay every intermediate tick).
		e.rescoreLocked(end)
		t := recs[j].Time
		next := t - t%simtime.Time(e.cfg.Epoch)
		if next < end {
			next = end
		}
		e.epochStart = next
		i = j
	}
}

// ingestLocked distributes one intra-epoch batch across the shards.
// Callers hold e.mu.
func (e *Engine) ingestLocked(recs []dnslog.Record) {
	if len(recs) == 0 {
		return
	}
	e.records += uint64(len(recs))
	for i := range recs {
		if recs[i].Time > e.watermark {
			e.watermark = recs[i].Time
		}
	}
	tok := e.cfg.Acct.Start("stream-ingest")
	parts := features.Partition(recs, &e.partBuf)
	pool := parallel.Pool{Workers: e.cfg.Workers, Obs: e.cfg.Obs, Stage: "stream-ingest", Acct: e.cfg.Acct}
	pool.Each(engineShards, func(s int) {
		sh := e.shards[s]
		for _, i := range parts[s] {
			sh.observe(recs[i], &e.cfg)
		}
	})
	tok.End()
	e.cfg.Obs.Counter("stream_records_total").Add(uint64(len(recs)))
}

// observe feeds one record into a shard: sliding dedup, then sketches. A
// querier's category is looked up here, and only when the originator's
// sample admits it — every later epoch reads it from the sample.
func (sh *shard) observe(r dnslog.Record, cfg *Config) {
	if cfg.DedupWindow > 0 {
		key := hll.Hash64(uint64(r.Originator)<<32 ^ uint64(r.Querier))
		if sh.dedup.seen(key, r.Time, cfg.DedupWindow) {
			return
		}
	}
	sh.kept++
	a := sh.aggs[r.Originator]
	if a == nil {
		a = sh.track(r.Originator, cfg.SampleK)
	}
	a.queries++
	h := hll.Hash64(uint64(r.Querier))
	if a.queriers.Add(h) {
		a.estStale = true
	}
	if a.sample.Admits(h) {
		a.sample.Add(h, features.SampleOf(cfg.CategoryOf, r.Querier))
		a.summaryStale = true
	}
	if b := r.Time.TenMinuteBucket(); b > a.lastBucket {
		a.lastBucket = b
		a.nbuckets++
	}
	// Heavy-hitter views take every deduplicated record, so mass from
	// originators later evicted from the agg table stays aggregated.
	sh.origRun = append(sh.origRun, r.Originator)
	sh.qryRun = append(sh.qryRun, r.Querier)
	if len(sh.origRun) == cap(sh.origRun) {
		sh.fold()
	}
}

// fold feeds the shard's buffered run into its heavy-hitter views, which
// then read as if each record had been added as it was kept.
func (sh *shard) fold() {
	sh.hhhOrig.Fold(sh.origRun)
	sh.hhhQry.Fold(sh.qryRun)
	sh.origRun, sh.qryRun = sh.origRun[:0], sh.qryRun[:0]
}

// track starts an originator's evidence, evicting first if the shard is
// full.
func (sh *shard) track(orig ipaddr.Addr, sampleK int) *agg {
	if len(sh.aggs) >= sh.cap {
		sh.evict()
	}
	a := &agg{
		queriers: hll.MustNew(11),
		sample:   hll.NewBottomK[features.Sampled](sampleK),
		// lastBucket below any real bucket so the first record counts.
		lastBucket: -1 << 62,
	}
	sh.aggs[orig] = a
	return a
}

// evict drops the quarter of the shard's originators with the smallest
// footprints (estimate ascending, address ascending — a total order, so
// eviction is independent of map iteration).
func (sh *shard) evict() {
	type entry struct {
		a ipaddr.Addr
		n uint64
	}
	all := make([]entry, 0, len(sh.aggs))
	for a, ag := range sh.aggs {
		all = append(all, entry{a, ag.estimate()})
	}
	slices.SortFunc(all, func(x, y entry) int {
		if x.n != y.n {
			return cmp.Compare(x.n, y.n)
		}
		return cmp.Compare(x.a, y.a)
	})
	drop := len(all) / 4
	if drop < 1 {
		drop = 1
	}
	for _, en := range all[:drop] {
		delete(sh.aggs, en.a)
	}
	sh.evictions += uint64(drop)
}

// Tick forces an epoch re-score at the given simulated time (replay
// drivers call it after the last batch; live mode calls it on its feed
// clock). Times at or before the last score are ignored.
func (e *Engine) Tick(at simtime.Time) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.started || at <= e.lastScore {
		return
	}
	e.rescoreLocked(at)
	if next := at - at%simtime.Time(e.cfg.Epoch); next > e.epochStart {
		e.epochStart = next
	}
}

// gather lists the shard's originators into out, which has room for them.
// Each sample is a view of its sketch, good until ingest resumes.
func (sh *shard) gather(out []features.SketchStats) {
	for orig, a := range sh.aggs {
		out = append(out, features.SketchStats{
			Originator: orig,
			Estimate:   int(a.estimate()),
			Queries:    a.queries,
			Buckets:    a.nbuckets,
			Sample:     a.sample.Values(),
		})
	}
}

// rescoreLocked classifies the tracked population from current sketch
// state and updates verdict/churn series. Callers hold e.mu.
func (e *Engine) rescoreLocked(at simtime.Time) {
	tok := e.cfg.Acct.Start("stream-rescore")
	e.epochs++
	e.lastScore = at

	// Gather stats shard by shard, each into its own run of one buffer and
	// on a worker of its own as in ingest, then sort: the input to norm
	// and vector computation is canonical whatever the map iteration
	// produced. The gather is uninstrumented: parallel_shards_total of
	// this stage counts analyzable originators. The buffer outlives the
	// epoch; its tail past tracked is cleared so it pins no evicted sample.
	var off [engineShards + 1]int
	for s, sh := range e.shards {
		off[s+1] = off[s] + len(sh.aggs)
	}
	tracked := off[engineShards]
	e.stats = slices.Grow(e.stats[:0], tracked)
	clear(e.stats[tracked:cap(e.stats)])
	stats := e.stats[:tracked]
	parallel.Pool{Workers: e.cfg.Workers}.Each(engineShards, func(s int) {
		e.shards[s].gather(stats[off[s]:off[s]:off[s+1]])
	})
	slices.SortFunc(stats, func(a, b features.SketchStats) int {
		return cmp.Compare(a.Originator, b.Originator)
	})
	dur := at.Sub(e.startTime)
	if dur < e.cfg.Epoch {
		dur = e.cfg.Epoch
	}
	norms := features.NormsFromStats(e.cfg.Geo, stats, dur, &e.norms)

	analyzable := stats[:0]
	for _, st := range stats {
		if st.Estimate >= e.cfg.MinQueriers {
			analyzable = append(analyzable, st)
		}
	}
	// Vector and verdict per originator on the pool; the serial tail only
	// tallies. A summary is recomputed only if its sample changed.
	classes := make([]activity.Class, len(analyzable))
	pool := parallel.Pool{Workers: e.cfg.Workers, Obs: e.cfg.Obs, Stage: "stream-rescore", Acct: e.cfg.Acct}
	vecs := parallel.Map(pool, len(analyzable), func(i int) *features.Vector {
		st := analyzable[i]
		a := e.shards[features.ShardOf(st.Originator)].aggs[st.Originator]
		if a.summaryStale {
			a.summary, a.summaryStale = features.Summarize(e.cfg.Geo, st.Sample), false
		}
		v := features.SketchVector(st, &a.summary, norms)
		if v != nil && e.cfg.Scorer != nil {
			classes[i] = e.cfg.Scorer.Classify(v)
		}
		return v
	})
	out := vecs[:0]
	for i, v := range vecs {
		if v != nil {
			classes[len(out)] = classes[i]
			out = append(out, v)
		}
	}

	if e.cfg.Scorer != nil {
		verdicts := make(map[ipaddr.Addr]activity.Class, len(out))
		var perClass [activity.NumClasses]uint64
		churned := 0
		for i, v := range out {
			c := classes[i]
			verdicts[v.Originator] = c
			perClass[c]++
			if prev, ok := e.verdicts[v.Originator]; ok && prev != c {
				churned++
			}
		}
		e.verdicts = verdicts
		e.churn += uint64(churned)
		for c := activity.Class(0); c < activity.NumClasses; c++ {
			if perClass[c] > 0 {
				e.cfg.Obs.Counter("stream_verdicts_total", obs.L("class", c.String())).AddAt(perClass[c], at)
			}
		}
		e.cfg.Obs.Counter("stream_verdict_churn_total").AddAt(uint64(churned), at)
	}
	features.SortVectors(out)
	e.vectors = out
	e.cfg.Obs.Counter("stream_epochs_total").IncAt(at)
	e.cfg.Obs.Gauge("stream_tracked_originators").SetAt(int64(tracked), at)
	tok.End()
}

// Vectors returns the last re-score's feature vectors in canonical
// order. The slice is shared; callers must not mutate it.
func (e *Engine) Vectors() []*features.Vector {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.vectors
}

// Verdicts returns a copy of the last re-score's verdict map.
func (e *Engine) Verdicts() map[ipaddr.Addr]activity.Class {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make(map[ipaddr.Addr]activity.Class, len(e.verdicts))
	for k, v := range e.verdicts {
		out[k] = v
	}
	return out
}

// hhhTop is how many prefixes per level Snapshot renders.
const hhhTop = 20

// Snapshot renders the engine's state as canonical text: an epoch
// header, the verdict table in vector order, and the top heavy-hitter
// prefixes per level for both address spaces. Byte-identical for a
// given record sequence at any worker count. It is the heavy-hitter
// sketches' only reader, so it folds every shard's run first.
func (e *Engine) Snapshot() []byte {
	e.mu.Lock()
	defer e.mu.Unlock()
	parallel.Pool{Workers: e.cfg.Workers}.Each(engineShards, func(s int) { e.shards[s].fold() })
	var b []byte
	b = append(b, "stream epoch="...)
	b = strconv.AppendInt(b, int64(e.epochs), 10)
	b = append(b, " scored="...)
	b = append(b, e.lastScore.String()...)
	b = append(b, " tracked="...)
	n := 0
	for _, sh := range e.shards {
		n += len(sh.aggs)
	}
	b = strconv.AppendInt(b, int64(n), 10)
	b = append(b, " analyzable="...)
	b = strconv.AppendInt(b, int64(len(e.vectors)), 10)
	b = append(b, '\n')
	for _, v := range e.vectors {
		b = append(b, "verdict "...)
		b = append(b, v.Originator.String()...)
		b = append(b, ' ')
		if c, ok := e.verdicts[v.Originator]; ok {
			b = append(b, c.String()...)
		} else {
			b = append(b, "unscored"...)
		}
		b = append(b, " queriers="...)
		b = strconv.AppendInt(b, int64(v.Queriers), 10)
		b = append(b, " queries="...)
		b = strconv.AppendInt(b, int64(v.Queries), 10)
		b = append(b, '\n')
	}
	b = e.appendHHH(b, "originators", func(sh *shard) *hhh.Sketch { return sh.hhhOrig })
	b = e.appendHHH(b, "queriers", func(sh *shard) *hhh.Sketch { return sh.hhhQry })
	return b
}

// appendHHH merges the per-shard sketches for one address space in
// fixed shard order and renders the top prefixes per level.
func (e *Engine) appendHHH(b []byte, title string, pick func(*shard) *hhh.Sketch) []byte {
	merged := hhh.New(e.cfg.HHHCapacity, e.cfg.Seed)
	for _, sh := range e.shards {
		merged.Merge(pick(sh))
	}
	b = append(b, "hhh "...)
	b = append(b, title...)
	b = append(b, " total="...)
	b = strconv.AppendUint(b, merged.Total(), 10)
	b = append(b, '\n')
	for _, bits := range hhh.Levels {
		es := merged.Level(bits)
		if len(es) > hhhTop {
			es = es[:hhhTop]
		}
		for _, en := range es {
			b = append(b, "  "...)
			b = append(b, en.String()...)
			b = append(b, '\n')
		}
	}
	return b
}

// Status is the /stream JSON document: engine progress and the verdict
// class histogram.
type Status struct {
	// Epochs is how many re-scores have run.
	Epochs int `json:"epochs"`
	// ScoredAt is the simulated time of the last re-score.
	ScoredAt simtime.Time `json:"scored_at"`
	// Watermark is the maximum record time ingested.
	Watermark simtime.Time `json:"watermark"`
	// Records is the total record count ingested (pre-dedup).
	Records uint64 `json:"records"`
	// Kept is the post-dedup record count.
	Kept uint64 `json:"kept"`
	// Tracked is the current originator count holding sketch state.
	Tracked int `json:"tracked"`
	// MaxTracked is the hard originator bound.
	MaxTracked int `json:"max_tracked"`
	// Evictions counts originators dropped by the memory bound.
	Evictions uint64 `json:"evictions"`
	// Analyzable is the vector count of the last re-score.
	Analyzable int `json:"analyzable"`
	// Churn counts verdict changes across all re-scores.
	Churn uint64 `json:"churn"`
	// Verdicts histograms the last re-score by class label.
	Verdicts map[string]int `json:"verdicts"`
}

// Values flattens the status into named scalars keyed by the StatusJSON
// field names — the source behind the alert engine's stream()
// expressions. Values are read by key, never ranged, so the map leaks
// no iteration order.
func (s Status) Values() map[string]float64 {
	return map[string]float64{
		"epochs":      float64(s.Epochs),
		"scored_at":   float64(s.ScoredAt),
		"watermark":   float64(s.Watermark),
		"records":     float64(s.Records),
		"kept":        float64(s.Kept),
		"tracked":     float64(s.Tracked),
		"max_tracked": float64(s.MaxTracked),
		"evictions":   float64(s.Evictions),
		"analyzable":  float64(s.Analyzable),
		"churn":       float64(s.Churn),
	}
}

// Status assembles the engine's current Status.
func (e *Engine) Status() Status {
	e.mu.Lock()
	defer e.mu.Unlock()
	st := Status{
		Epochs:     e.epochs,
		ScoredAt:   e.lastScore,
		Watermark:  e.watermark,
		Records:    e.records,
		MaxTracked: e.shards[0].cap * engineShards,
		Analyzable: len(e.vectors),
		Churn:      e.churn,
		Verdicts:   make(map[string]int),
	}
	for _, sh := range e.shards {
		st.Tracked += len(sh.aggs)
		st.Kept += sh.kept
		st.Evictions += sh.evictions
	}
	for _, c := range e.verdicts {
		st.Verdicts[c.String()]++
	}
	return st
}

// StatusJSON renders Status as deterministic JSON (map keys marshal
// sorted).
func (e *Engine) StatusJSON() []byte {
	out, err := json.MarshalIndent(e.Status(), "", "  ")
	if err != nil {
		// Status is plain data; Marshal cannot fail.
		return []byte("{}")
	}
	return append(out, '\n')
}
