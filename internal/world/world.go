// Package world composes the substrates — geo registry, querier naming,
// activity campaigns, and the DNS hierarchy — into a seeded synthetic
// Internet that produces DNS backscatter.
//
// This package is the substitution for the paper's closed operational
// traces (§III-G): instead of replaying JP-DNS/B-Root/M-Root captures, a
// World simulates the generative process those captures recorded. Running
// a world fills the attached sensors with (originator, querier, authority)
// records; the world also retains ground truth (which originator ran which
// class) that downstream packages use the way the paper used blacklists,
// darknets, and manual curation.
package world

import (
	"fmt"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/darknet"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/faults"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/prof"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
)

// Burst injects extra campaigns over a window — Heartbleed-style reactions
// to security events (§VI-C: scanning jumps ~25% after 2014-04-07).
type Burst struct {
	Class    activity.Class
	Port     string // for scan bursts, e.g. "tcp443"
	Start    simtime.Time
	Duration simtime.Duration
	Extra    int // additional concurrent campaigns at the burst peak
}

// The querier population and the darknet's view of it are fixed.
const (
	// querierRanks is the pool depth per (category, country).
	querierRanks = 4096
	// zipfS is the querier popularity exponent: unique queriers grow as
	// draws^(1/zipfS), giving Figure 4's sublinear footprint.
	zipfS = 1.4
	// scanRawProbes and p2pRawProbes are the raw probes behind one
	// reaction-producing scan or p2p touch, which the darknets thin.
	scanRawProbes = 2000
	p2pRawProbes  = 100
)

// Config parameterizes a world.
type Config struct {
	Seed     uint64
	Start    simtime.Time
	Duration simtime.Duration

	// ClassPopulation is the steady-state number of concurrently active
	// campaigns per class. Classes with 0 never appear.
	ClassPopulation [activity.NumClasses]int

	// RateScale multiplies every campaign's touch rate; long datasets
	// use < 1 to keep event counts laptop-sized. Default 1.
	RateScale float64

	// JPShare is the probability a campaign's home country is jp,
	// overriding the global weights (the paper's JP-ditl needs a strong
	// population of jp-space originators). 0 uses geography alone.
	JPShare float64

	// MSample is the M-Root sensor's sampling divisor (M-sampled is 10).
	// 1 or 0 records everything.
	MSample int

	// Teams is the probability a new scan campaign spawns as a
	// coordinated /24 team (§VI-B).
	Teams float64

	Bursts []Burst

	// Keep names the one sensor whose records somebody reads ("jp",
	// "b-root", "m-root", "final-xxxx"); every other sensor only counts.
	// Empty keeps the records of all.
	Keep string

	// Faults, when non-nil, degrades the DNS path with the plan's seeded
	// schedule of losses, latency, truncation, SERVFAILs, and dead
	// authorities. The schedule is a pure function of (profile, seed), so
	// a faulted world replays byte-identically at any worker count.
	Faults *faults.Plan

	// DarknetSlash8 places the paper's /17+/18 darknets in that /8 and
	// enables darknet observation of scan/p2p raw probes. 0 disables.
	DarknetSlash8 byte

	// QMinFraction is the share of resolvers performing QNAME
	// minimization (RFC 7816); minimized lookups are invisible to root
	// and national sensors. The paper's §VII flags this as a future
	// constraint on backscatter; 0 matches the 2014-era measurements.
	QMinFraction float64

	// Workers bounds the goroutines the resolver shards run on; <= 0 uses
	// runtime.GOMAXPROCS(0) and 1 runs them one after another. Either way
	// they run beside the generation of the next batch. No output byte
	// depends on it.
	Workers int

	// Obs, when non-nil, instruments the world and everything beneath it:
	// activity events (world_events_total), campaign births per class
	// (world_campaign_births_total{class=...}), campaigns ending inside the
	// simulated span (world_campaign_deaths_total), population gauges
	// (world_campaigns, world_queriers), plus the hierarchy's per-level
	// query counters and the shared resolver-cache counters. The counters
	// are pure functions of the world seed and config, so two identically
	// configured worlds produce identical snapshots.
	Obs *obs.Registry
	// Tracer, when non-nil, is the end-to-end lookup tracer: every
	// activity-driven reverse lookup begins a trace annotated with its
	// campaign class and port.
	Tracer *trace.Tracer
	// Acct, when non-nil, reports the simulation's shard runs as stage
	// "world-sim" on the ops channel (shard counts, concurrent-worker
	// peaks).
	Acct *prof.Accountant
}

// DefaultConfig returns a small world good for tests and examples: two
// simulated days, a few dozen campaigns per major class.
func DefaultConfig() Config {
	var pop [activity.NumClasses]int
	pop[activity.Spam] = 30
	pop[activity.Scan] = 25
	pop[activity.Mail] = 20
	pop[activity.CDN] = 12
	pop[activity.AdTracker] = 8
	pop[activity.Cloud] = 8
	pop[activity.Crawler] = 6
	pop[activity.DNSServer] = 6
	pop[activity.NTP] = 4
	pop[activity.P2P] = 10
	pop[activity.Push] = 5
	pop[activity.Update] = 3
	return Config{
		Seed:            1,
		Start:           simtime.Date(2014, 4, 15, 11, 0),
		Duration:        simtime.Hours(50),
		ClassPopulation: pop,
		RateScale:       1,
		JPShare:         0.25,
		MSample:         1,
		Teams:           0.08,
	}
}

// Originator ground truth retained by the world.
type Truth struct {
	Class activity.Class
	Port  string // scan port label, if any
	Team  int    // scanner team id, 0 = none
}

// World is a runnable synthetic Internet. Run drops the simulator when it
// returns: a run world is its sensors, campaigns, truth, profiles and
// querier names (DESIGN.md, "A run world is data").
type World struct {
	Cfg Config
	Geo *geo.Registry

	// Sensors. BRoot/MRoot always exist; National holds one sensor per
	// country that was attached (jp by default).
	BRoot    *dnssim.Sensor
	MRoot    *dnssim.Sensor
	National map[string]*dnssim.Sensor
	Finals   map[uint16]*dnssim.Sensor

	Campaigns []*activity.Campaign

	// Dark is non-nil when Config.DarknetSlash8 is set; it accumulates
	// the external scan evidence of Appendix A.
	Dark *darknet.Darknet

	hier     *dnssim.Hierarchy // nil once Run returns
	pool     *querierPool
	truth    map[ipaddr.Addr]Truth
	mixes    map[ipaddr.Addr]classMix
	profiles map[ipaddr.Addr]dnssim.OriginatorProfile
	src      *rng.Source
	spawnSt  *rng.Stream
	darkSt   *rng.Stream
	nextTeam int

	m *worldMetrics

	// bufs[cur] collects the events generated but not yet resolved; the
	// other buffer is the batch in flight when done is non-nil. done
	// receives that batch's panic, or nil once it is merged. See run.go.
	bufs [2]batch
	cur  int
	done chan any
	ran  bool
	// staged, set by tests, sees each batch before the shards resolve it.
	staged func(*batch)
}

// worldMetrics holds the world's pre-resolved counters and gauges. All
// methods are no-ops on a nil receiver.
type worldMetrics struct {
	events    *obs.Counter
	deaths    *obs.Counter
	births    [activity.NumClasses]*obs.Counter
	campaigns *obs.Gauge
	queriers  *obs.Gauge
}

func newWorldMetrics(reg *obs.Registry) *worldMetrics {
	if reg == nil {
		return nil
	}
	m := &worldMetrics{
		events:    reg.Counter("world_events_total"),
		deaths:    reg.Counter("world_campaign_deaths_total"),
		campaigns: reg.Gauge("world_campaigns"),
		queriers:  reg.Gauge("world_queriers"),
	}
	for cls := activity.Class(0); cls < activity.NumClasses; cls++ {
		m.births[cls] = reg.Counter("world_campaign_births_total",
			obs.L("class", cls.String()))
	}
	return m
}

func (m *worldMetrics) event(now simtime.Time) {
	if m != nil {
		m.events.IncAt(now)
	}
}

func (m *worldMetrics) birth(cls activity.Class, now simtime.Time) {
	if m != nil {
		m.births[cls].IncAt(now)
	}
}

// New builds a world from cfg, wired to cfg's fault plan, registry, tracer
// and accountant (which it hands down to the hierarchy and the resolver
// caches). Sensors are attached but empty until Run.
func New(cfg Config) *World {
	if cfg.RateScale <= 0 {
		cfg.RateScale = 1
	}
	if cfg.MSample < 1 {
		cfg.MSample = 1
	}
	src := rng.NewSource(cfg.Seed)
	g := geo.NewRegistry(cfg.Seed)
	w := &World{
		Cfg:      cfg,
		Geo:      g,
		National: make(map[string]*dnssim.Sensor),
		Finals:   make(map[uint16]*dnssim.Sensor),
		truth:    make(map[ipaddr.Addr]Truth),
		mixes:    make(map[ipaddr.Addr]classMix),
		profiles: make(map[ipaddr.Addr]dnssim.OriginatorProfile),
		src:      src,
		spawnSt:  src.Stream("spawn"),
		nextTeam: 1,
		m:        newWorldMetrics(cfg.Obs),
	}
	if cfg.DarknetSlash8 != 0 {
		w.Dark = darknet.NewPaperDarknets(cfg.DarknetSlash8)
		w.darkSt = src.Stream("darknet")
	}
	hc := dnssim.Config{Faults: cfg.Faults, Obs: cfg.Obs, Tracer: cfg.Tracer}
	w.hier = dnssim.NewHierarchy(g, hc, w.profileFor)
	w.BRoot = w.newSensor("b-root", 1)
	w.MRoot = w.newSensor("m-root", cfg.MSample)
	w.hier.AttachRoots(w.BRoot, w.MRoot)
	w.attachNational("jp")
	w.pool = newQuerierPool(g, src, cfg.Obs)
	w.pool.qminFraction = cfg.QMinFraction
	return w
}

// newSensor returns a sensor that stops at the world's horizon and keeps
// records only if Cfg.Keep says somebody reads them.
func (w *World) newSensor(name string, sample int) *dnssim.Sensor {
	s := dnssim.NewSensor(name, sample)
	s.End = w.Cfg.Start.Add(w.Cfg.Duration)
	s.CountOnly = w.Cfg.Keep != "" && w.Cfg.Keep != name
	return s
}

// attachNational adds a sensor for one country's registry zone.
func (w *World) attachNational(country string) *dnssim.Sensor {
	if s, ok := w.National[country]; ok {
		return s
	}
	s := w.newSensor(country, 1)
	w.National[country] = s
	w.hier.AttachNational(country, s)
	return s
}

// attachFinal instruments the final authority of a /16 reverse zone.
func (w *World) attachFinal(slash16 uint16) *dnssim.Sensor {
	if s, ok := w.Finals[slash16]; ok {
		return s
	}
	s := w.newSensor(fmt.Sprintf("final-%04x", slash16), 1)
	w.Finals[slash16] = s
	w.hier.AttachFinal(slash16, s)
	return s
}

// Truth returns the ground-truth record for an originator, if it ran a
// campaign in this world.
func (w *World) Truth(a ipaddr.Addr) (Truth, bool) {
	t, ok := w.truth[a]
	return t, ok
}

// TruthMap exposes the full ground truth (read-only by convention).
func (w *World) TruthMap() map[ipaddr.Addr]Truth { return w.truth }

// QuerierName returns the reverse name of a querier observed in the logs,
// plus whether the querier's own reverse zone is unreachable. This is the
// lookup the sensor performs when computing static features.
func (w *World) QuerierName(a ipaddr.Addr) (name string, unreach bool) {
	return w.pool.nameOf(a)
}

// QuerierCategory returns the reverse-name category of a querier observed
// in the logs, Unreach when its reverse zone is unreachable: what
// qname.Classify makes of QuerierName, from one table lookup.
func (w *World) QuerierCategory(a ipaddr.Addr) qname.Category {
	return w.pool.categoryOf(a)
}

// profileFor answers the hierarchy's profile queries: campaign originators
// get class-flavored profiles assigned at spawn; everything else falls back
// to the default distribution.
func (w *World) profileFor(a ipaddr.Addr) dnssim.OriginatorProfile {
	if p, ok := w.profiles[a]; ok {
		return p
	}
	return dnssim.DefaultProfile(a)
}

// SetProfile overrides the reverse-DNS profile of one originator (the
// controlled-scan driver sets TTL 0 on its prober).
func (w *World) SetProfile(a ipaddr.Addr, p dnssim.OriginatorProfile) {
	w.profiles[a] = p
}

// ProfileOf reports the reverse-DNS posture of an originator — the TTL /
// nxdomain / unreachable flavor shown in the paper's Tables VII and VIII.
func (w *World) ProfileOf(a ipaddr.Addr) dnssim.OriginatorProfile {
	return w.profileFor(a)
}

// homeCountry draws a campaign's home country.
func (w *World) homeCountry(st *rng.Stream) string {
	if w.Cfg.JPShare > 0 && st.Bool(w.Cfg.JPShare) {
		return "jp"
	}
	total := 0
	for _, c := range geo.Countries {
		total += c.Weight
	}
	pick := st.Intn(total)
	for _, c := range geo.Countries {
		if pick < c.Weight {
			return c.Code
		}
		pick -= c.Weight
	}
	return "us"
}

// originatorIn draws an unused originator address in the given country.
func (w *World) originatorIn(country string, st *rng.Stream) ipaddr.Addr {
	for i := 0; i < 64; i++ {
		a, ok := w.Geo.RandomAddrIn(country, st)
		if !ok {
			a = ipaddr.Addr(st.Uint64())
		}
		if _, taken := w.truth[a]; !taken {
			return a
		}
	}
	// Extremely unlikely at simulation scales; accept a collision.
	a, _ := w.Geo.RandomAddrIn(country, st)
	return a
}
