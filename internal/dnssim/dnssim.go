// Package dnssim simulates the reverse-DNS resolution hierarchy that turns
// network-wide activity into DNS backscatter (Figure 1 of the paper).
//
// When a querier performs a reverse lookup for an originator, its resolver
// walks the in-addr.arpa delegation chain, asking only the authorities it
// lacks cached delegations for. Sensors attached to authorities therefore
// observe backscatter with level-dependent attenuation:
//
//   - the final authority (the originator's own /16 reverse zone) sees every
//     lookup whose PTR answer is not cached at the resolver,
//   - national registries (the /8 zone, e.g. JPNIC space) see lookups whose
//     /16 delegation is cold,
//   - the roots (which the paper treats together with the in-addr.arpa
//     apex) see only lookups whose /8 delegation is cold — heavy
//     attenuation, exactly the effect measured in §IV-D.
//
// Busy shared resolvers additionally keep the upper tree warm through
// background reverse traffic the simulation does not enumerate; that
// warming is modeled as a deterministic per-(resolver, zone, TTL-epoch)
// draw weighted by the resolver's busyness.
package dnssim

import (
	"dnsbackscatter/internal/cache"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/faults"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
)

// The hierarchy's caching and retry behaviour mirrors 2014 operational
// practice (§II, §IV-D).
const (
	// NationalNSTTL is how long resolvers cache a /8 zone delegation.
	// It governs attenuation at the roots.
	NationalNSTTL = 2 * simtime.Day
	// FinalNSTTL is how long resolvers cache a /16 zone delegation.
	// It governs attenuation at national authorities.
	FinalNSTTL = 6 * simtime.Hour
	// ServFailTTL is how long a resolver remembers that a lookup gave up
	// before retrying.
	ServFailTTL = 5 * simtime.Minute

	// Authority queries retry like a common stub, consulted only when a
	// fault plan is installed (a fault-free network answers the first
	// try): RetryAttempts tries in all, the first included, RetryBase
	// before the first retry, the delay doubling up to RetryCap.
	RetryAttempts = 3
	RetryBase     = 2 * simtime.Second
	RetryCap      = 8 * simtime.Second
)

// Backoff returns the delay between attempt n-1 and attempt n (1-based
// retries): RetryBase<<(n-1), capped at RetryCap.
func Backoff(n int) simtime.Duration {
	if n <= 0 {
		return 0
	}
	d := RetryBase
	for i := 1; i < n && d < RetryCap; i++ {
		d *= 2
	}
	return min(d, RetryCap)
}

// Config wires a hierarchy to its fault plan and instruments.
type Config struct {
	// Faults, when non-nil, is a deterministic fault plan applied to every
	// authority exchange. Faults activate the retry backoff: dropped or
	// dead exchanges retry up to RetryAttempts times, each retry counted
	// in resolver_retries_total, exhaustion in resolver_gaveup_total,
	// truncation-forced TCP re-asks in resolver_tcp_fallbacks_total.
	Faults *faults.Plan
	// Obs, when non-nil, counts lookups started, lookups answered wholly
	// from the resolver cache, authority queries per hierarchy level
	// (dnssim_queries_total{level=root|national|final} — the §IV-D
	// attenuation is the ratio of these), upper-tree queries hidden by
	// QNAME minimization, and the fault plan's injections.
	Obs *obs.Registry
	// Tracer, when non-nil, is the end-to-end lookup tracer. Resolve begins
	// a trace per lookup; callers that want to annotate the trace with
	// upstream context (world activity) begin it themselves and call Walk.
	Tracer *trace.Tracer
}

// DefaultConfig returns a hierarchy with no faults and no instruments.
func DefaultConfig() Config { return Config{} }

// OriginatorProfile describes the reverse-DNS posture of one originator,
// fixed by whoever runs its final authority.
type OriginatorProfile struct {
	HasName bool             // a PTR record exists
	Name    string           // the PTR target when HasName
	TTL     simtime.Duration // PTR TTL; 0 disables caching (controlled scans)
	NegTTL  simtime.Duration // negative-cache TTL when !HasName
	// FinalUnreachable marks originators whose final authority never
	// answers (the "F" rows of Tables VII/VIII).
	FinalUnreachable bool
}

// ProfileFunc supplies the profile for an originator address.
type ProfileFunc func(ipaddr.Addr) OriginatorProfile

// DefaultProfile derives a deterministic, plausible profile from the
// address alone: ~80% of originators have reverse names, TTLs drawn from
// common operational values, and a few percent sit behind dead servers.
func DefaultProfile(a ipaddr.Addr) OriginatorProfile { return SeededProfile(a, 0) }

// SeededProfile is DefaultProfile for a zone re-keyed by seed: a's posture
// (named or not, TTLs, dead authority) is the one DefaultProfile gives the
// address a + seed, wrapping at 2^32, while the name is a's own.
func SeededProfile(a ipaddr.Addr, seed uint64) OriginatorProfile {
	p := SeededPosture(a, seed)
	if p.HasName {
		p.Name = HostName(a)
	}
	return p
}

// SeededPosture is SeededProfile without the name, for callers that ask
// only whether a has one (Name stays empty).
func SeededPosture(a ipaddr.Addr, seed uint64) OriginatorProfile {
	h := hash64(uint64(a+ipaddr.Addr(seed)), 0x9d5f)
	var p OriginatorProfile
	switch {
	case h%100 < 78:
		p.HasName = true
	case h%100 < 94:
		p.HasName = false
	default:
		p.FinalUnreachable = true
	}
	ttls := []simtime.Duration{10 * simtime.Minute, simtime.Hour, 8 * simtime.Hour, simtime.Day}
	p.TTL = ttls[(h>>8)%4]
	p.NegTTL = ttls[(h>>16)%4] / 2
	return p
}

// HostName is the synthetic zone's PTR name for a,
// "host-a.b.c.d.example.net", in one allocation of its exact size.
func HostName(a ipaddr.Addr) string {
	var b [len("host-255.255.255.255.example.net")]byte
	return string(append(a.AppendTo(append(b[:0], "host-"...)), ".example.net"...))
}

// Sensor collects records at one authority, optionally sampling. A sample
// rate of n keeps one of every n queries deterministically (M-sampled is
// 1:10, §III-G).
type Sensor struct {
	Name   string
	Sample int
	// End, when nonzero, is the collection horizon: queries at or after
	// it are not recorded (the capture stopped).
	End simtime.Time
	// CountOnly marks a sensor nobody reads records from: it applies the
	// horizon, counts and samples exactly as its keeping twin would, and
	// buffers nothing. Len, Records and Range panic on it.
	CountOnly bool

	n    uint64
	auth dnslog.Authority
	buf  dnslog.Buffer
}

// NewSensor returns an in-memory sensor. sample < 1 is treated as 1.
func NewSensor(name string, sample int) *Sensor {
	if sample < 1 {
		sample = 1
	}
	return &Sensor{Name: name, Sample: sample, auth: dnslog.MustAuthority(name)}
}

// Observe records one query, subject to sampling and the collection
// horizon. It reports whether a record was actually kept — tracing uses
// this to emit sensor events only for records the pipeline will see.
//
//bslint:hotpath
func (s *Sensor) Observe(now simtime.Time, orig, querier ipaddr.Addr, rcode uint8) bool {
	if s == nil {
		return false
	}
	if s.End != 0 && !now.Before(s.End) {
		return false
	}
	s.n++
	if s.Sample > 1 && s.n%uint64(s.Sample) != 0 {
		return false
	}
	if !s.CountOnly {
		s.buf.Append(dnslog.Record{Time: now, Originator: orig, Querier: querier, Authority: s.auth, RCode: rcode})
	}
	return true
}

// Seen returns the total number of queries arriving at the sensor before
// sampling.
func (s *Sensor) Seen() uint64 { return s.n }

// records returns the buffer of a sensor that keeps one.
func (s *Sensor) records() *dnslog.Buffer {
	if s.CountOnly {
		panic("dnssim: sensor " + s.Name + " only counts; it holds no records")
	}
	return &s.buf
}

// Len returns the number of records kept so far.
func (s *Sensor) Len() int { return s.records().Len() }

// Records returns the kept records as one contiguous slice — a single
// exact-size copy out of the sensor's chunked buffer. Call it once per
// drain, not per record.
func (s *Sensor) Records() []dnslog.Record { return s.records().Flatten() }

// Range calls fn for each kept record with index >= from, in arrival
// order, without copying. Incremental consumers (scan verification)
// remember Len() as their base and range from it.
func (s *Sensor) Range(from int, fn func(dnslog.Record)) { s.records().Range(from, fn) }

// Reset releases the collected records and keeps the counters: whoever
// took Records() owns the only copy.
func (s *Sensor) Reset() { s.buf = dnslog.Buffer{} }

// Resolver is one querier's recursive resolution state. It is a value
// with no heap object of its own (the stream is held by value), so a
// population of resolvers can live in arrays.
type Resolver struct {
	Addr  ipaddr.Addr
	owner int32 // this resolver's id in caches
	// Busyness in [0, 1] is the chance per TTL epoch that background
	// traffic already warmed an upper-tree delegation.
	Busyness float64
	// PreferM is the probability a root-level query lands on M-Root
	// rather than B-Root (anycast proximity; M is Asia-heavy).
	PreferM float64
	// MaxPTRTTL, when positive, caps how long this resolver honors any
	// cached answer — PTR records and delegations alike — modeling the
	// cache-poor middleboxes that "do not follow DNS timeout rules"
	// (§III-C), whose re-queries the 30 s dedup window exists for and
	// which push per-querier query counts well above 1 at every level of
	// the hierarchy.
	MaxPTRTTL simtime.Duration
	// RetransmitProb is the chance a lookup's queries are sent twice a
	// few seconds apart (timeout retransmits) — the sub-30 s duplicates
	// the paper's dedup window removes.
	RetransmitProb float64
	// QNameMin marks resolvers performing QNAME minimization (RFC 7816,
	// flagged by the paper's §VII as a constraint on backscatter): upper
	// levels of the hierarchy receive only the zone labels they are
	// authoritative for, so root and national sensors cannot attribute
	// the lookup to an originator. Only the final authority still sees
	// the full reverse name.
	QNameMin bool
	// Tag is the owner's: two bytes kept beside the resolver in what
	// would be padding (a world keeps its querier's category and shard).
	Tag [2]uint8

	caches *Caches
	st     rng.Stream
}

// Caches is the flat cache table a group of resolvers share (one per
// world shard): no per-resolver map, no pointers for the collector to
// trace. Each resolver's entries are bounded separately.
type Caches = cache.Table[struct{}]

// CacheMetricName is the cache= label every simulated resolver's cache
// counters aggregate under — the population view §IV-D cares about.
const CacheMetricName = "resolver"

// NewCaches returns an empty table whose resolvers each hold at most
// perResolverMax entries, counting into reg under CacheMetricName when reg
// is non-nil.
func NewCaches(perResolverMax int, reg *obs.Registry) *Caches {
	c := cache.NewTable[struct{}](perResolverMax)
	c.SetMetrics(reg, CacheMetricName)
	return c
}

// NewResolver returns a resolver with a private cache table, drawing from
// a copy of st.
func NewResolver(addr ipaddr.Addr, busyness, preferM float64, cacheMax int, st *rng.Stream) *Resolver {
	r := new(Resolver)
	r.Init(NewCaches(cacheMax, nil), 0, addr, busyness, preferM, *st)
	return r
}

// Init makes r a fresh resolver caching in the shared table c as owner, an
// id no other resolver in c uses, and drawing from st. It does not touch
// c, so a resolver can be set up in place while others walk c on another
// goroutine.
func (r *Resolver) Init(c *Caches, owner int, addr ipaddr.Addr, busyness, preferM float64, st rng.Stream) {
	*r = Resolver{Addr: addr, owner: int32(owner), Busyness: busyness, PreferM: preferM, caches: c, st: st}
}

func (r *Resolver) cached(key uint64, now simtime.Time) bool {
	_, _, ok := r.caches.Get(int(r.owner), key, now)
	return ok
}

// store applies one of the walk's cache writes.
func (r *Resolver) store(w Write) {
	if w.Negative {
		r.caches.PutNegative(int(r.owner), w.Key, w.TTL, w.At)
	} else {
		r.caches.Put(int(r.owner), w.Key, struct{}{}, w.TTL, w.At)
	}
}

// Hierarchy is the simulated reverse-DNS tree with attached sensors.
type Hierarchy struct {
	Geo     *geo.Registry
	Cfg     Config
	Profile ProfileFunc

	rootB    *Sensor
	rootM    *Sensor
	national map[string]*Sensor // country code -> sensor
	finals   map[uint16]*Sensor // /16 -> sensor (instrumented final zones)

	m    Metrics
	taps []Tap // Resolve's scratch
}

// Metrics holds a walk's counters, the simulated walk's and the live
// dnsserver.Recursor's alike: all nil, and so no-ops, when uninstrumented.
// Each count carries its event's simulated instant, so a Window attached
// to the registry buckets it into time series.
type Metrics struct {
	resolves      *obs.Counter
	cached        *obs.Counter
	hidden        *obs.Counter
	retries       *obs.Counter
	gaveup        *obs.Counter
	tcpFallbacks  *obs.Counter
	finalTimeouts *obs.Counter
	level         [3]*obs.Counter // by Levels index
}

// Levels names the hierarchy's authority levels top-down, matching the
// attenuation ordering of Figure 1: root sees least, final sees all. The
// simulated walk and the live recursor label metrics and trace hops by it.
var Levels = [3]string{"root", "national", "final"}

// NewMetrics resolves the walk counters in reg, which may be nil.
func NewMetrics(reg *obs.Registry) Metrics {
	m := Metrics{
		resolves:      reg.Counter("dnssim_resolves_total"),
		cached:        reg.Counter("dnssim_cached_total"),
		hidden:        reg.Counter("dnssim_qmin_hidden_total"),
		retries:       reg.Counter("resolver_retries_total"),
		gaveup:        reg.Counter("resolver_gaveup_total"),
		tcpFallbacks:  reg.Counter("resolver_tcp_fallbacks_total"),
		finalTimeouts: reg.Counter("dnssim_final_timeouts_total"),
	}
	for i, lv := range Levels {
		m.level[i] = reg.Counter("dnssim_queries_total", obs.L("level", lv))
	}
	return m
}

// Resolve counts one lookup, and whether the cache answered it whole.
func (m *Metrics) Resolve(cached bool, now simtime.Time) {
	if m.resolves != nil { // uninstrumented: no call at all
		m.resolve(cached, now)
	}
}

func (m *Metrics) resolve(cached bool, now simtime.Time) {
	m.resolves.IncAt(now)
	if cached {
		m.cached.IncAt(now)
	}
}

// Queries counts n authority queries at level li (index into Levels);
// hidden marks upper-tree queries whose reverse name QNAME minimization
// stripped of the originator.
func (m *Metrics) Queries(li int, n uint64, hidden bool, now simtime.Time) {
	if m.resolves != nil {
		m.queries(li, n, hidden, now)
	}
}

func (m *Metrics) queries(li int, n uint64, hidden bool, now simtime.Time) {
	m.level[li].AddAt(n, now)
	if hidden {
		m.hidden.AddAt(n, now)
	}
}

// NewHierarchy builds a hierarchy over the geo registry, wired to cfg's
// fault plan, registry and tracer. profile may be nil to use
// DefaultProfile.
func NewHierarchy(g *geo.Registry, cfg Config, profile ProfileFunc) *Hierarchy {
	if profile == nil {
		profile = DefaultProfile
	}
	if cfg.Obs != nil {
		cfg.Faults.SetMetrics(cfg.Obs) // guarded: a plan may be shared
	}
	return &Hierarchy{
		Geo:      g,
		Cfg:      cfg,
		Profile:  profile,
		national: make(map[string]*Sensor),
		finals:   make(map[uint16]*Sensor),
		m:        NewMetrics(cfg.Obs),
	}
}

// AttachRoots installs the two root sensors. Either may be nil.
func (h *Hierarchy) AttachRoots(b, m *Sensor) {
	h.rootB, h.rootM = b, m
}

// AttachNational installs a sensor for one country's /8 registry zones.
func (h *Hierarchy) AttachNational(country string, s *Sensor) {
	h.national[country] = s
}

// AttachFinal instruments the final authority for one /16 reverse zone.
func (h *Hierarchy) AttachFinal(slash16 uint16, s *Sensor) {
	h.finals[slash16] = s
}

// hash64 mixes two values splitmix-style for deterministic side draws.
func hash64(a, b uint64) uint64 {
	z := a*0x9e3779b97f4a7c15 + b
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// bgWarm reports whether background traffic has this zone's delegation warm
// at the resolver for the TTL epoch containing now. The draw is a pure
// function of (resolver, zone, epoch), so replaying a simulation gives
// identical attenuation.
func bgWarm(r *Resolver, zoneKey uint64, ttl simtime.Duration, now simtime.Time) bool {
	if r.Busyness <= 0 || ttl <= 0 {
		return false
	}
	epoch := uint64(now) / uint64(ttl)
	draw := hash64(uint64(r.Addr)^hash64(zoneKey, 0x517c), epoch)
	return float64(draw>>11)/(1<<53) < r.Busyness
}

// Subject is the resolver-independent half of a lookup: what the
// hierarchy knows about the originator whose reverse name is asked for —
// its DNS profile and the sensors at its national and final authorities.
// A caller resolving one originator many times (a campaign's events)
// builds it once with Hierarchy.Subject; a zero Subject carrying only Orig
// is filled by the first walk that misses the PTR cache.
type Subject struct {
	Orig ipaddr.Addr

	ready    bool
	profile  OriginatorProfile
	national *Sensor
	final    *Sensor
}

// Subject resolves orig's profile and authorities as of now; a later
// change of the ProfileFunc's answer needs a new Subject.
func (h *Hierarchy) Subject(orig ipaddr.Addr) Subject {
	sub := Subject{Orig: orig}
	h.fill(&sub)
	return sub
}

func (h *Hierarchy) fill(sub *Subject) {
	sub.profile = h.Profile(sub.Orig)
	sub.national = h.national[h.Geo.Country(sub.Orig)]
	sub.final = h.finals[sub.Orig.Slash16()]
	sub.ready = true
}

// Tap is one query arriving at a sensed authority, produced by Walk and
// not yet shown to the sensor. Whether the sensor keeps it depends on the
// arrival order across all resolvers (1:N sampling counts arrivals), so
// walks only collect taps, possibly on several goroutines, and Deliver
// applies them in the global order their Seq gives.
type Tap struct {
	// Seq is the caller's order key for the lookup that produced the tap.
	Seq uint32

	rcode   uint8
	event   int32   // tc's tentative sensor event
	sensor  *Sensor // nil: the lookup ended; commit tc
	at      simtime.Time
	orig    ipaddr.Addr
	querier ipaddr.Addr
	tc      *trace.Ctx
}

// Deliver shows taps to their sensors in slice order, confirming the
// trace event of each record a sensor keeps and committing each finished
// trace. Not safe for concurrent use: sensors and the tracer's ring are
// shared by every resolver.
func Deliver(taps []Tap) {
	for i := range taps {
		p := &taps[i]
		if p.sensor == nil {
			p.tc.Commit()
		} else if p.sensor.Observe(p.at, p.orig, p.querier, p.rcode) {
			p.tc.Keep(int(p.event), p.orig, p.querier)
		}
	}
}

// lookup is the state of one walk.
type lookup struct {
	h    *Hierarchy
	out  *[]Tap
	seq  uint32
	r    *Resolver
	orig ipaddr.Addr // not the *Subject: a pointer here would escape with tc
	// dup: a retransmitting stub re-sends this lookup's queries ~3 s
	// later, before any answer has been cached.
	dup bool
	tc  *trace.Ctx
}

// observe taps the query answered at t (and its retransmitted twin) for
// sensor s; a nil s is an authority nobody instrumented.
func (x *lookup) observe(s *Sensor, t simtime.Time, rcode uint8) {
	if s == nil {
		return
	}
	x.tap(s, t, rcode)
	if x.dup {
		x.tap(s, t.Add(3), rcode)
	}
}

func (x *lookup) tap(s *Sensor, t simtime.Time, rcode uint8) {
	*x.out = append(*x.out, Tap{Seq: x.seq, sensor: s, at: t, orig: x.orig, querier: x.r.Addr,
		rcode: rcode, tc: x.tc, event: int32(x.tc.Tap(s.Name, rcode, t))})
}

// endTrace ends a lookup's trace; the commit waits for Deliver so traces
// reach the tracer in global order.
func endTrace(out *[]Tap, seq uint32, tc *trace.Ctx, now simtime.Time, queries int) {
	if tc != nil {
		tc.Done(now, queries)
		*out = append(*out, Tap{Seq: seq, tc: tc})
	}
}

func (x *lookup) finish(now simtime.Time, queries int) int {
	endTrace(x.out, x.seq, x.tc, now, queries)
	return queries
}

// giveUp negative-caches the name after a level exhausted its retries —
// the same rate limit the dead-final path always used.
func (x *lookup) giveUp(now simtime.Time, queries int) int {
	x.r.store(GiveUp(x.orig, ServFailTTL, now))
	return x.finish(now, queries)
}

// exchange runs the query/retry loop against one authority level. It
// sends up to RetryAttempts queries (exactly one when no fault plan is
// installed — the polite network of earlier PRs is byte-identical),
// backing off with the capped exponential policy between tries. Each
// answer that actually arrives is tapped for sensor s with the instant it
// arrives and its rcode; dead authorities and dropped packets produce no
// observation, SERVFAIL answers observe with RCodeServFail, and
// truncated answers are re-asked over TCP (one extra query, one extra
// observation a second later). Every attempt, injected fault, and answer
// is annotated on the trace. It returns whether a clean answer arrived,
// when it arrived, and how many queries were sent.
func (x *lookup) exchange(li int, zone uint64, hidden bool, rcode uint8, unreachable bool,
	s *Sensor, now simtime.Time) (ok bool, done simtime.Time, sent int) {
	h, tc, fp := x.h, x.tc, x.h.Cfg.Faults
	lv := Levels[li]
	if fp == nil {
		h.m.Queries(li, 1, hidden, now)
		tc.Query(lv, 1, now)
		if unreachable {
			h.m.gaveup.IncAt(now)
			tc.Fault(lv, 1, "unreachable", now)
			tc.GiveUp(lv, now)
			return false, now, 1
		}
		x.observe(s, now, rcode)
		tc.Answer(lv, rcode, 0, now)
		return true, now, 1
	}

	res, sub := uint64(x.r.Addr), uint64(x.orig)
	t := now
	for attempt := 0; attempt < RetryAttempts; attempt++ {
		if attempt > 0 {
			h.m.retries.IncAt(t)
			t = t.Add(Backoff(attempt))
		}
		h.m.Queries(li, 1, hidden, t)
		tc.Query(lv, attempt+1, t)
		sent++
		if unreachable || fp.IsDead(li, zone, t) {
			// Authority dark: the query times out silently.
			fk := "dead"
			if unreachable {
				fk = "unreachable"
			}
			tc.Fault(lv, attempt+1, fk, t)
			continue
		}
		if fp.Drop(li, res, sub, t, attempt) {
			tc.Fault(lv, attempt+1, "loss", t)
			continue // datagram lost in flight: timeout, then retry
		}
		lat := fp.LatencyFor(li, res, sub, t, attempt)
		if lat > 0 {
			tc.Fault(lv, attempt+1, "latency", t)
		}
		at := t.Add(lat)
		if fp.ServFails(li, zone, t, attempt) {
			tc.Fault(lv, attempt+1, "servfail", at)
			x.observe(s, at, dnswire.RCodeServFail)
			tc.Answer(lv, dnswire.RCodeServFail, lat, at)
			t = at
			continue
		}
		x.observe(s, at, rcode)
		tc.Answer(lv, rcode, lat, at)
		if fp.TruncateAnswer(li, res, sub, at) {
			// TC answer: re-ask the same authority over TCP. The TCP
			// exchange succeeds and the authority logs a second query.
			h.m.tcpFallbacks.IncAt(at)
			tc.Fault(lv, attempt+1, "truncate", at)
			tc.TCP(lv, attempt+1, at)
			h.m.Queries(li, 1, hidden, at)
			sent++
			at = at.Add(1)
			x.observe(s, at, rcode)
			tc.Answer(lv, rcode, 0, at)
		}
		return true, at, sent
	}
	h.m.gaveup.IncAt(t)
	tc.GiveUp(lv, t)
	return false, t, sent
}

// Resolve performs one reverse lookup of orig by r at time now, emitting a
// record at each authority the query reaches. It returns the number of
// authority queries sent (0 when the answer was fully cached). When a
// fault plan is installed, any level that exhausts its retries aborts the
// lookup: the resolver negative-caches the name for ServFailTTL and the
// giveup is counted in resolver_gaveup_total. With a tracer installed,
// Resolve begins a trace for the lookup (subject to head sampling). It is
// Walk followed at once by Deliver, for callers with one lookup at a time.
func (h *Hierarchy) Resolve(r *Resolver, orig ipaddr.Addr, now simtime.Time) int {
	sub := Subject{Orig: orig}
	h.taps = h.taps[:0]
	queries := h.Walk(&h.taps, 0, r, &sub, now, h.Cfg.Tracer.Begin(r.Addr, orig, now))
	if len(h.taps) > 0 {
		Deliver(h.taps)
	}
	return queries
}

// Walk is the resolver's half of a lookup of sub.Orig by r at time now:
// it consults and updates only r's own cache entries and random stream,
// and appends a Tap tagged seq to out for every query that reaches a
// sensed authority. Walks of different resolvers may therefore run
// concurrently as long as each goroutine has its own out and cache table;
// the sensors see nothing until Deliver. tc is the lookup's trace
// context, begun by the caller; nil traces nothing and the resolution
// path is identical either way. It returns the number of authority
// queries sent.
func (h *Hierarchy) Walk(out *[]Tap, seq uint32, r *Resolver, sub *Subject, now simtime.Time, tc *trace.Ctx) int {
	if !r.cached(cache.PTRKey(sub.Orig), now) {
		return h.walkUp(out, seq, r, sub, now, tc)
	}
	h.m.Resolve(true, now)
	tc.CacheHit(now)
	endTrace(out, seq, tc, now, 0)
	return 0
}

// walkUp is Walk past a PTR-cache miss: up the tree as far as the
// resolver's cached delegations make it go, then the final authority. It
// is apart from Walk so the common cached lookup does not pay for this
// function's frame.
func (h *Hierarchy) walkUp(out *[]Tap, seq uint32, r *Resolver, sub *Subject, now simtime.Time, tc *trace.Ctx) int {
	h.m.Resolve(false, now)
	if !sub.ready {
		h.fill(sub)
	}
	orig := sub.Orig
	x := lookup{h: h, out: out, seq: seq, r: r, orig: orig, tc: tc}
	x.dup = r.RetransmitProb > 0 && r.st.Bool(r.RetransmitProb)

	// Start below the most specific cached (or background-warmed)
	// delegation. A minimizing resolver asks the upper levels only for
	// "1.in-addr.arpa" or "2.1.in-addr.arpa", which no sensor attributes.
	have16 := r.cached(cache.Zone16Key(orig), now)
	have8 := r.cached(cache.Zone8Key(orig), now) || bgWarm(r, cache.Zone8Key(orig), NationalNSTTL, now)
	queries, cur := 0, now
	for li := StartLevel(have8, have16); li < 2; li++ {
		s, ttl := sub.national, FinalNSTTL
		if li == 0 {
			s, ttl = h.rootB, NationalNSTTL
			if r.st.Bool(r.PreferM) {
				s = h.rootM
			}
		}
		if r.QNameMin {
			s = nil
		}
		ok, done, sent := x.exchange(li, cache.Zone8Key(orig), r.QNameMin, dnswire.RCodeNoError, false, s, cur)
		queries += sent
		if !ok {
			return x.giveUp(cur, queries)
		}
		cur = done
		r.store(Referral(orig, li+1, r.capTTL(ttl), now))
	}

	// Final authority query for the PTR record itself.
	p := &sub.profile
	rcode, ttl := dnswire.RCodeNoError, p.TTL
	if !p.HasName {
		rcode, ttl = dnswire.RCodeNXDomain, p.NegTTL
	}
	ok, done, sent := x.exchange(2, cache.Zone16Key(orig), false, rcode, p.FinalUnreachable, sub.final, cur)
	queries += sent
	if !ok {
		// Timeout at the dead (or fault-exhausted) final: nothing arrives
		// to record, but the failure itself is now visible as
		// dnssim_final_timeouts_total.
		h.m.finalTimeouts.IncAt(cur)
		return x.giveUp(cur, queries)
	}
	r.store(Answer(orig, p.HasName, r.capTTL(ttl), done))
	return x.finish(done, queries)
}

func (r *Resolver) capTTL(ttl simtime.Duration) simtime.Duration {
	if r.MaxPTRTTL > 0 && ttl > r.MaxPTRTTL {
		return r.MaxPTRTTL
	}
	return ttl
}

// The walk's decisions, one table for walkUp and the live
// dnsserver.Recursor, which call them directly: where a walk starts, and
// the cache write (key, TTL as honored, date) each answer and give-up leaves.

// StartLevel returns the level (an index into Levels) a walk past a
// PTR-cache miss asks first: the final authority when the /16 delegation
// is cached, the national registry when only the /8 one is, else a root.
func StartLevel(have8, have16 bool) int {
	if have16 {
		return 2
	} else if have8 {
		return 1
	}
	return 0
}

// Write is one cache entry a walk leaves at its resolver.
type Write struct {
	Key      uint64
	TTL      simtime.Duration
	At       simtime.Time
	Negative bool
}

// Referral is what a referral toward level next (1 national, 2 final)
// leaves: orig's /8 or /16 zone delegation, dated at the lookup's start.
func Referral(orig ipaddr.Addr, next int, ttl simtime.Duration, start simtime.Time) Write {
	key := cache.Zone8Key(orig)
	if next == 2 {
		key = cache.Zone16Key(orig)
	}
	return Write{Key: key, TTL: ttl, At: start}
}

// Answer is what the final authority's answer leaves: the PTR record, or
// the NXDOMAIN as a negative entry, dated when the answer arrived.
func Answer(orig ipaddr.Addr, named bool, ttl simtime.Duration, arrived simtime.Time) Write {
	return Write{Key: cache.PTRKey(orig), TTL: ttl, At: arrived, Negative: !named}
}

// GiveUp is what a walk that got no usable answer leaves: a negative entry
// for servFailTTL, dated when the failing level was first asked, so
// retries of a dead name are rate-limited.
func GiveUp(orig ipaddr.Addr, servFailTTL simtime.Duration, asked simtime.Time) Write {
	return Write{Key: cache.PTRKey(orig), TTL: servFailTTL, At: asked, Negative: true}
}
