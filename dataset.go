package backscatter

import (
	"fmt"
	"sync"
	"time"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/classify"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/faults"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/groundtruth"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/prof"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
	"dnsbackscatter/internal/world"
)

// DatasetSpec describes a dataset to simulate — the knobs of the paper's
// Table I plus simulation-scale controls.
type DatasetSpec struct {
	Name      string
	Authority string   // "jp", "b-root", or "m-root"
	Start     Time     // collection start
	Duration  Duration // collection length
	Interval  Duration // feature-aggregation interval d (§III-B)
	Sample    int      // M-Root sampling divisor (1 = unsampled)
	Seed      uint64

	// Scale multiplies class populations; RateScale multiplies campaign
	// touch rates. Together they size the simulation.
	Scale     float64
	RateScale float64

	// Population is the steady-state concurrent campaigns per class
	// before Scale.
	Population [NumClasses]int

	// MinQueriers is the analyzability threshold; the paper uses 20.
	MinQueriers int

	// Heartbleed injects the 2014-04-07 scanning burst when the window
	// covers it.
	Heartbleed bool

	// Darknet enables the /17+/18 scan monitors.
	Darknet bool

	// JPShare boosts the fraction of originators in jp space.
	JPShare float64

	// QMinFraction is the share of resolvers performing QNAME
	// minimization, which hides lookups from root and national sensors
	// (§VII). 0 matches the paper's 2014-era world.
	QMinFraction float64

	// TeamProb is the probability a scan campaign spawns as a /24 team
	// (§VI-B). Negative disables teams; 0 uses the world default.
	TeamProb float64

	// Workers bounds the goroutines the world simulation's resolver
	// shards and each pipeline stage (extract, train, validate, classify)
	// may use; <= 0 uses runtime.GOMAXPROCS(0) and 1 runs every stage
	// inline. Every worker count yields byte-identical records,
	// snapshots, models, and metrics.
	Workers int

	// Faults degrades the simulated DNS path with a seeded fault plan,
	// written as "profile" or "profile@seed" (e.g. "lossy@42"; see
	// FaultProfiles). Empty or "none" keeps the fault-free network. The
	// schedule is a pure function of the spec, so a faulted dataset is
	// byte-identical at any worker count.
	Faults string

	// Trace enables end-to-end query tracing with head-based sampling:
	// 0 disables tracing, 1 traces every lookup, and N > 1 keeps the
	// deterministic 1/N of lookups whose trace ID satisfies
	// id % N == 0. Trace IDs are pure hashes of (seed, querier, qname,
	// time), so the sampled subset — and the rendered JSONL — is
	// byte-identical at any worker count.
	Trace int
}

// Scaled returns a copy with populations and rates multiplied by f — the
// single knob for shrinking simulations in tests.
func (s DatasetSpec) Scaled(f float64) DatasetSpec {
	s.Scale *= f
	return s
}

// WithParallelism returns a copy that runs pipeline stages on up to n
// goroutines (see Workers). Output is byte-identical for every n.
func (s DatasetSpec) WithParallelism(n int) DatasetSpec {
	s.Workers = n
	return s
}

// WithFaults returns a copy whose DNS path degrades under the given
// "profile@seed" fault spec (see Faults).
func (s DatasetSpec) WithFaults(spec string) DatasetSpec {
	s.Faults = spec
	return s
}

// WithTracing returns a copy that records end-to-end lookup traces,
// keeping the deterministic 1/n sample (n = 1 traces everything; see
// Trace).
func (s DatasetSpec) WithTracing(n int) DatasetSpec {
	s.Trace = n
	return s
}

// basePopulation reflects the relative class sizes of Table V.
func basePopulation() [NumClasses]int {
	var p [NumClasses]int
	p[Spam] = 36
	p[Scan] = 30
	p[Mail] = 22
	p[CDN] = 14
	p[P2P] = 12
	p[AdTracker] = 8
	p[Cloud] = 8
	p[Crawler] = 6
	p[DNSServer] = 6
	p[Push] = 5
	p[NTP] = 4
	p[Update] = 3
	return p
}

// JPDitl is the ccTLD 50-hour dataset (Table I row 1): unsampled, low in
// the hierarchy, jp-space originators only.
func JPDitl() DatasetSpec {
	return DatasetSpec{
		Name:        "JP-ditl",
		Authority:   "jp",
		Start:       simtime.Date(2014, time.April, 15, 11, 0),
		Duration:    simtime.Hours(50),
		Interval:    simtime.Hours(50),
		Sample:      1,
		Seed:        1404,
		Scale:       1,
		RateScale:   0.6,
		Population:  jpPopulation(),
		MinQueriers: 20,
		Darknet:     true,
		JPShare:     0.5,
		TeamProb:    0.02,
	}
}

// jpPopulation skews toward spam, the most common class the paper sees at
// the JP authority (Table V); scan teams otherwise dominate the small
// simulated ccTLD view.
func jpPopulation() [NumClasses]int {
	p := basePopulation()
	p[Spam] = 52
	p[Scan] = 18
	return p
}

// BPostDitl is B-Root's 36-hour dataset (taken shortly after DITL 2014).
func BPostDitl() DatasetSpec {
	s := JPDitl()
	s.Name = "B-post-ditl"
	s.TeamProb = 0.08
	s.Population = basePopulation()
	s.Authority = "b-root"
	s.Start = simtime.Date(2014, time.April, 28, 19, 56)
	s.Duration = simtime.Hours(36)
	s.Interval = simtime.Hours(36)
	s.Seed = 1428
	s.RateScale = 0.8
	s.JPShare = 0.12
	return s
}

// MDitl is M-Root's 50-hour DITL 2014 dataset.
func MDitl() DatasetSpec {
	s := JPDitl()
	s.Name = "M-ditl"
	s.TeamProb = 0.08
	s.Population = basePopulation()
	s.Authority = "m-root"
	s.Seed = 1415
	s.RateScale = 0.8
	s.JPShare = 0.12
	return s
}

// MDitl2015 is M-Root's DITL 2015 collection.
func MDitl2015() DatasetSpec {
	s := MDitl()
	s.Name = "M-ditl-2015"
	s.Start = simtime.Date(2015, time.April, 13, 11, 0)
	s.Seed = 1513
	return s
}

// MSampled is the nine-month, 1:10-sampled M-Root dataset used for the
// paper's longitudinal analysis (§VI-C), with weekly feature intervals
// (d = 7 days) and the Heartbleed window inside its span.
func MSampled() DatasetSpec {
	s := JPDitl()
	s.Name = "M-sampled"
	s.TeamProb = 0.08
	s.Authority = "m-root"
	s.Start = simtime.Date(2014, time.February, 16, 0, 0)
	s.Duration = simtime.Days(252) // 36 weeks ≈ 9 months
	s.Interval = simtime.Week
	s.Sample = 10
	s.Seed = 1402
	s.RateScale = 0.45
	s.JPShare = 0.12
	s.Heartbleed = true
	// Longitudinal trend shapes (Figures 11-15) need a deeper malicious
	// population than the two-day snapshots.
	s.Population[Scan] = 48
	s.Population[Spam] = 48
	return s
}

// BLong is B-Root's five-month unsampled dataset (controlled experiments,
// §IV-D).
func BLong() DatasetSpec {
	s := JPDitl()
	s.Name = "B-long"
	s.TeamProb = 0.08
	s.Population = basePopulation()
	s.Authority = "b-root"
	s.Start = simtime.Date(2015, time.January, 1, 0, 0)
	s.Duration = simtime.Days(150)
	s.Interval = simtime.Week
	s.Seed = 1501
	s.RateScale = 0.15
	s.JPShare = 0.12
	return s
}

// BMultiYear is B-Root's 4.16-year dataset behind the long-term accuracy
// study (§V), with daily intervals around the 2014-04-28..30 curation.
func BMultiYear() DatasetSpec {
	s := JPDitl()
	s.Name = "B-multi-year"
	s.TeamProb = 0.08
	s.Population = basePopulation()
	s.Authority = "b-root"
	s.Start = simtime.Date(2011, time.July, 8, 0, 0)
	s.Duration = simtime.Days(1520)
	s.Interval = simtime.Week
	s.Seed = 1107
	s.RateScale = 0.08 // leaner rates keep 4 years tractable
	s.JPShare = 0.12
	s.Heartbleed = true
	return s
}

// Dataset is a built (simulated and collected) dataset: the world, the
// authority's records, interval snapshots, and curated ground truth.
type Dataset struct {
	Spec    DatasetSpec
	World   *world.World
	Records []Record
	// Snapshots are the per-interval feature views; Whole() aggregates
	// the full span.
	Snapshots []*Snapshot
	Extractor *features.Extractor
	Oracle    *groundtruth.Oracle
	// Labels is the expert curation over the whole span.
	Labels *groundtruth.LabeledSet

	whole  *Snapshot
	obs    *obs.Registry    // Instruments.Obs
	tracer *trace.Tracer    // non-nil when Spec.Trace > 0
	acct   *prof.Accountant // Instruments.Acct

	truthOnce sync.Once
	truth     map[Addr]Class
}

// heartbleedBurst models the post-announcement scanning surge: the paper
// measures a ~25% jump in weekly scanner counts lasting about a month.
func heartbleedBurst(scanPop int) world.Burst {
	return world.Burst{
		Class:    Scan,
		Port:     "tcp443",
		Start:    simtime.Date(2014, time.April, 7, 12, 0),
		Duration: simtime.Days(28),
		Extra:    scanPop/3 + 1,
	}
}

// Instruments is what a build records into besides its outputs. The zero
// value records nothing.
type Instruments struct {
	// Obs, when non-nil, receives the deterministic metrics of the world,
	// hierarchy, resolver caches, and the Figure 2 pipeline stages
	// (dedup/filter/extract, and classify via TrainClassifier); later
	// pipeline runs on the dataset keep recording. With a deterministic
	// clock (TickClock), the full snapshot is a pure function of the spec.
	Obs *obs.Registry
	// Acct, when non-nil, accumulates per-stage resource accounting for
	// the simulation and the pipeline stages (dedup, filter, extract, and
	// train / validate / classify through TrainClassifier and friends):
	// alloc deltas, GC cycles, goroutine and pool-worker high-water marks.
	// The accountant is the repository's *ops* channel: its readings
	// depend on scheduling and GC timing, so they are reported only via
	// Resources(), never folded into the deterministic obs snapshot,
	// traces, or time series.
	Acct *prof.Accountant
}

// Build simulates the dataset. Large specs (M-sampled, B-multi-year) take
// tens of seconds; use Scaled for tests.
func Build(spec DatasetSpec) *Dataset { return BuildWith(spec, Instruments{}) }

// BuildObserved is Build recording into an observability registry; a nil
// reg is exactly Build.
func BuildObserved(spec DatasetSpec, reg *obs.Registry) *Dataset {
	return BuildWith(spec, Instruments{Obs: reg})
}

// BuildWith is Build recording into in. When spec.Trace > 0 every
// simulated lookup also threads through a tracer created from spec.Seed
// (activity annotation, cache hits, per-level hops, faults, sensor taps)
// and the pipeline stages annotate record provenance; see Dataset.Tracer.
// A spec with a non-positive Interval or an invalid Faults plan panics.
func BuildWith(spec DatasetSpec, in Instruments) *Dataset {
	if spec.Interval <= 0 {
		panic("backscatter: Interval must be positive")
	}
	if spec.Scale <= 0 {
		spec.Scale = 1
	}
	cfg := world.DefaultConfig()
	cfg.Seed = spec.Seed
	cfg.Start = spec.Start
	cfg.Duration = spec.Duration
	cfg.RateScale = spec.RateScale
	if cfg.RateScale <= 0 {
		cfg.RateScale = 1
	}
	cfg.MSample = spec.Sample
	cfg.JPShare = spec.JPShare
	for cls, n := range spec.Population {
		scaled := int(float64(n)*spec.Scale + 0.5)
		if n > 0 && scaled == 0 {
			scaled = 1
		}
		cfg.ClassPopulation[cls] = scaled
	}
	cfg.QMinFraction = spec.QMinFraction
	cfg.Workers = spec.Workers
	if spec.TeamProb != 0 {
		cfg.Teams = spec.TeamProb
		if cfg.Teams < 0 {
			cfg.Teams = 0
		}
	}
	if spec.Darknet {
		cfg.DarknetSlash8 = 150
	}
	plan, err := faults.Parse(spec.Faults)
	if err != nil {
		panic(fmt.Sprintf("backscatter: %v", err))
	}
	cfg.Faults = plan
	if spec.Heartbleed {
		hb := heartbleedBurst(cfg.ClassPopulation[Scan])
		end := spec.Start.Add(spec.Duration)
		if hb.Start.After(spec.Start) && hb.Start.Before(end) {
			cfg.Bursts = append(cfg.Bursts, hb)
		}
	}

	var tr *trace.Tracer
	if spec.Trace > 0 {
		tr = trace.New(spec.Seed, uint64(spec.Trace))
	}
	cfg.Obs, cfg.Tracer, cfg.Acct = in.Obs, tr, in.Acct
	cfg.Keep = spec.Authority // a dataset is one vantage point
	w := world.New(cfg)
	d := &Dataset{Spec: spec, World: w, obs: in.Obs, tracer: tr, acct: in.Acct}
	sensor := d.sensor()
	w.Run()
	d.Records = sensor.Records()
	sensor.Reset() // the dataset owns them now

	d.Extractor = features.NewExtractor(w.Geo, w.QuerierName)
	d.Extractor.Obs = in.Obs
	d.Extractor.Tracer = tr
	d.Extractor.Acct = in.Acct
	d.Extractor.Workers = spec.Workers
	if spec.MinQueriers > 0 {
		d.Extractor.MinQueriers = spec.MinQueriers
	}
	d.Snapshots = classify.SnapIntervals(d.Records, d.Extractor, spec.Start, spec.Duration, spec.Interval)

	truth := make(map[ipaddr.Addr]activity.Class)
	for a, tr := range w.TruthMap() {
		truth[a] = tr.Class
	}
	d.Oracle = groundtruth.NewOracle(truth, w.Dark, spec.Seed)
	cur := groundtruth.DefaultCuration()
	st := rng.NewSource(spec.Seed).Stream("curation")
	d.Labels = groundtruth.Curate(d.Whole().Ranked(), d.Oracle, cur, st)
	return d
}

// Whole returns the single snapshot aggregating the dataset's full span.
func (d *Dataset) Whole() *Snapshot {
	if d.whole == nil {
		d.whole = classify.Snap(d.Records, d.Extractor, d.Spec.Start, d.Spec.Duration)
	}
	return d.whole
}

// Truth returns the true class of an originator, if it ran a campaign.
func (d *Dataset) Truth(a Addr) (Class, bool) {
	tr, ok := d.World.Truth(a)
	return tr.Class, ok
}

// FullTruth returns an originator's class, scan-port label, and scanner
// team id (0 = none).
func (d *Dataset) FullTruth(a Addr) (cls Class, port string, team int, ok bool) {
	tr, ok := d.World.Truth(a)
	return tr.Class, tr.Port, tr.Team, ok
}

// TruthMap returns all originator classes. The map is built once and
// shared across calls (and across workers) — treat it as read-only.
func (d *Dataset) TruthMap() map[Addr]Class {
	d.truthOnce.Do(func() {
		wt := d.World.TruthMap()
		d.truth = make(map[Addr]Class, len(wt))
		for a, tr := range wt {
			d.truth[a] = tr.Class
		}
	})
	return d.truth
}

// ReverseQueries reports how many reverse queries arrived at the dataset's
// authority before sampling (Table I's reverse-query column).
func (d *Dataset) ReverseQueries() uint64 { return d.sensor().Seen() }

// sensor returns the world's sensor at the dataset's authority.
func (d *Dataset) sensor() *dnssim.Sensor {
	switch d.Spec.Authority {
	case "jp":
		return d.World.National["jp"]
	case "b-root":
		return d.World.BRoot
	case "m-root":
		return d.World.MRoot
	}
	panic(fmt.Sprintf("backscatter: unknown authority %q", d.Spec.Authority))
}
