package main

import (
	"encoding/binary"
	"errors"
	"hash"
	"hash/fnv"
	"sort"

	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/classify"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/groundtruth"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/world"
)

// seeded applies the run seed to a Table I dataset shape. The seed
// shifts the collection window by a whole number of ten-minute activity
// slots, which re-draws every event of every campaign (event streams
// are keyed by absolute slot) while the campaign population — whose
// Pareto rates and exponential lifetimes make world size swing several
// fold between spec seeds — stays the paper row's. Inputs differ per
// seed; the amount of work does not, so ten seeds can be compared. The
// shift stays under twelve hours so a burst keeps its simulated day.
func seeded(spec backscatter.DatasetSpec, seed uint64) backscatter.DatasetSpec {
	spec.Workers = procs
	spec.Start = spec.Start.Add(simtime.Duration(seed%72) * 10 * simtime.Minute)
	return spec
}

// digester folds outputs into one FNV-1a value; repetitions of one run
// must agree on it.
type digester struct {
	h   hash.Hash64
	buf [8]byte
}

func newDigester() *digester { return &digester{h: fnv.New64a()} }

func (d *digester) bytes(p []byte) { _, _ = d.h.Write(p) } // a hash.Hash never returns an error

func (d *digester) u64(v uint64) {
	binary.LittleEndian.PutUint64(d.buf[:], v)
	d.bytes(d.buf[:])
}

func (d *digester) records(recs []dnslog.Record) {
	d.u64(uint64(len(recs)))
	for _, r := range recs {
		d.u64(uint64(r.Time))
		d.u64(uint64(r.Originator)<<32 | uint64(r.Querier))
		d.u64(uint64(r.RCode))
	}
}

// verdicts folds a verdict map in address order.
func (d *digester) verdicts(v map[ipaddr.Addr]activity.Class) {
	addrs := make([]ipaddr.Addr, 0, len(v))
	for a := range v {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	d.u64(uint64(len(addrs)))
	for _, a := range addrs {
		d.u64(uint64(a)<<8 | uint64(v[a]))
	}
}

func (d *digester) sum() uint64 { return d.h.Sum64() }

// accuracy is the share of verdicts equal to ground truth, over the
// verdicts whose originator has a true class.
func accuracy(verdicts, truth map[ipaddr.Addr]activity.Class) (float64, int) {
	var n, ok int
	for a, c := range verdicts {
		if tc, has := truth[a]; has {
			n++
			if tc == c {
				ok++
			}
		}
	}
	if n == 0 {
		return 0, 0
	}
	return float64(ok) / float64(n), n
}

// simWorkload is sim-longitudinal: one repetition builds the nine-month
// sampled M-Root dataset, so world.Run, the resolver walk and the
// resolver caches are inside the timed region.
type simWorkload struct {
	spec backscatter.DatasetSpec
	cfg  world.Config         // what Build derives from spec
	ds   *backscatter.Dataset // the latest build
}

func (w *simWorkload) prepare(seed uint64, sz sizes) error {
	w.spec = seeded(backscatter.MSampled().Scaled(sz.simScale), seed)
	w.spec.Duration = simtime.Duration(sz.simDays) * simtime.Day
	// A batch job has no inputs to stage, so its set-up is the first,
	// cold build: heap growth and cache warm-up a user pays once.
	w.ds = backscatter.Build(w.spec)
	w.cfg = w.ds.World.Cfg
	return nil
}

func (w *simWorkload) items() int { return int(w.ds.ReverseQueries()) }

func simDigest(recs []dnslog.Record, snaps []*classify.Snapshot, labels *groundtruth.LabeledSet) uint64 {
	d := newDigester()
	d.records(recs)
	for _, s := range snaps {
		d.u64(uint64(len(s.Vectors)))
	}
	d.verdicts(labels.Labels)
	return d.sum()
}

func (w *simWorkload) rep(sp *spans) (uint64, error) {
	if sp == nil {
		w.ds = nil // drop the last build before the next: one dataset alive
		w.ds = backscatter.Build(w.spec)
		return simDigest(w.ds.Records, w.ds.Snapshots, w.ds.Labels), nil
	}
	// The traced repetition replaces the opaque Build with its layer
	// calls, on the world configuration Build derived from the spec.
	// Its digest must equal Build's, which checkRep verifies.
	spec := w.spec
	var wd *world.World
	sp.do("world.run", func() {
		wd = world.New(w.cfg)
		wd.Run()
	})
	var recs []dnslog.Record
	sp.do("world.records", func() { recs = wd.MRoot.Records() })
	x := features.NewExtractor(wd.Geo, wd.QuerierName)
	x.Workers = spec.Workers
	x.MinQueriers = spec.MinQueriers
	var snaps []*classify.Snapshot
	sp.do("classify.snap_intervals", func() {
		snaps = classify.SnapIntervals(recs, x, spec.Start, spec.Duration, spec.Interval)
	})
	var whole *classify.Snapshot
	sp.do("features.extract", func() { whole = classify.Snap(recs, x, spec.Start, spec.Duration) })
	var labels *groundtruth.LabeledSet
	sp.do("groundtruth.curate", func() {
		truth := make(map[ipaddr.Addr]activity.Class)
		for a, tr := range wd.TruthMap() {
			truth[a] = tr.Class
		}
		oracle := groundtruth.NewOracle(truth, wd.Dark, spec.Seed)
		st := rng.NewSource(spec.Seed).Stream("curation")
		labels = groundtruth.Curate(whole.Ranked(), oracle, groundtruth.DefaultCuration(), st)
	})
	return simDigest(recs, snaps, labels), nil
}

func (w *simWorkload) quality() (float64, int, error) {
	model, err := w.ds.TrainClassifier(1)
	if err != nil {
		return 0, 0, err
	}
	share, n := accuracy(model.ClassifyAll(w.ds.Whole()), w.ds.TruthMap())
	return share, n, nil
}

func (w *simWorkload) layers(self []map[string]float64, sz sizes, m map[string]float64) error {
	m["world.reverse_queries"] = float64(w.ds.ReverseQueries())
	m["world.campaigns"] = float64(len(w.ds.World.Campaigns))
	m["world.queriers"] = float64(w.ds.World.QuerierPoolSize())
	m["features.vectors"] = float64(len(w.ds.Whole().Vectors))
	if n := len(w.ds.Records); n > 0 {
		m["features.extract_ns_per_record"] = m["features.extract_s"] * 1e9 / float64(n)
	}

	// One observed build reads the resolver walk's exact counters.
	reg := obs.NewRegistry()
	od := backscatter.BuildObserved(w.spec, reg)
	if got, want := simDigest(od.Records, od.Snapshots, od.Labels), simDigest(w.ds.Records, w.ds.Snapshots, w.ds.Labels); got != want {
		return errors.New("the observed build's outputs differ from the plain build's")
	}
	count := func(name string, labels ...obs.Label) float64 {
		return float64(reg.Counter(name, labels...).Value())
	}
	resolves := count("dnssim_resolves_total")
	m["dnssim.resolves"] = resolves
	if resolves > 0 {
		m["dnssim.cached_share"] = count("dnssim_cached_total") / resolves
	}
	for _, level := range []string{"root", "national", "final"} {
		m["dnssim.upstream_"+level] = count("dnssim_queries_total", obs.L("level", level))
	}
	var hits, misses float64
	for _, tier := range []string{"other", "ptr", "z8", "z16"} {
		ls := []obs.Label{obs.L("cache", "resolver"), obs.L("tier", tier)}
		hits += count("cache_hits_total", ls...)
		misses += count("cache_misses_total", ls...)
	}
	if hits+misses > 0 {
		m["cache.hit_share"] = hits / (hits + misses)
	}

	// Timed loops over the hierarchy's public resolve call: every
	// lookup a fresh originator (cold), then one originator again and
	// again inside its TTL (cached).
	profile := func(ipaddr.Addr) dnssim.OriginatorProfile {
		return dnssim.OriginatorProfile{HasName: true, Name: "x.example.net", TTL: simtime.Hour, NegTTL: simtime.Hour}
	}
	h := dnssim.NewHierarchy(geo.NewRegistry(w.spec.Seed), dnssim.DefaultConfig(), profile)
	h.AttachRoots(dnssim.NewSensor("b-root", 1), dnssim.NewSensor("m-root", 1))
	r := dnssim.NewResolver(ipaddr.MustParse("10.0.0.53"), 0, 0.5, 1024, rng.New(7))
	st := rng.New(w.spec.Seed)
	m["dnssim.resolve_cold_ns"] = timeLoop(sz.microOps, func(i int) {
		h.Resolve(r, ipaddr.Addr(st.Uint64()), simtime.Time(i))
	})
	orig := ipaddr.MustParse("100.50.3.4")
	h.Resolve(r, orig, 0)
	m["dnssim.resolve_cached_ns"] = timeLoop(sz.microOps, func(int) { h.Resolve(r, orig, 1) })
	return nil
}
