package dnssim

import (
	"strings"
	"testing"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/faults"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

func testHierarchy(profile ProfileFunc) (*Hierarchy, *Sensor, *Sensor, map[string]*Sensor, *Sensor, ipaddr.Addr) {
	return wiredHierarchy(nil, nil, profile)
}

// wiredHierarchy is testHierarchy constructed with a fault plan and a
// registry (either may be nil).
func wiredHierarchy(plan *faults.Plan, reg *obs.Registry, profile ProfileFunc) (*Hierarchy, *Sensor, *Sensor, map[string]*Sensor, *Sensor, ipaddr.Addr) {
	g := geo.NewRegistry(42)
	cfg := DefaultConfig()
	cfg.Faults, cfg.Obs = plan, reg
	h := NewHierarchy(g, cfg, profile)
	b := NewSensor("b-root", 1)
	m := NewSensor("m-root", 1)
	h.AttachRoots(b, m)
	nats := make(map[string]*Sensor)
	for _, c := range geo.Countries {
		s := NewSensor(c.Code, 1)
		nats[c.Code] = s
		h.AttachNational(c.Code, s)
	}
	orig := ipaddr.MustParse("100.50.3.4")
	final := NewSensor("final", 1)
	h.AttachFinal(orig.Slash16(), final)
	return h, b, m, nats, final, orig
}

func newResolver(busy, preferM float64) *Resolver {
	return NewResolver(ipaddr.MustParse("10.0.0.53"), busy, preferM, 1024, rng.New(7))
}

func cachedProfile(a ipaddr.Addr) OriginatorProfile {
	return OriginatorProfile{HasName: true, Name: "x.example.net", TTL: simtime.Hour, NegTTL: simtime.Hour}
}

func TestColdResolverHitsAllLevels(t *testing.T) {
	h, b, m, nats, final, orig := testHierarchy(cachedProfile)
	r := newResolver(0, 0) // never prefers M, no background warmth
	n := h.Resolve(r, orig, 1000)
	if n != 3 {
		t.Errorf("cold resolve sent %d queries, want 3 (root, national, final)", n)
	}
	if b.Seen() != 1 || m.Seen() != 0 {
		t.Errorf("root hits: b=%d m=%d, want 1/0", b.Seen(), m.Seen())
	}
	country := h.Geo.Country(orig)
	if nats[country].Seen() != 1 {
		t.Errorf("national sensor saw %d", nats[country].Seen())
	}
	if final.Seen() != 1 {
		t.Errorf("final sensor saw %d", final.Seen())
	}
	rec := final.Records()[0]
	if rec.Originator != orig || rec.Querier != r.Addr || rec.RCode != dnswire.RCodeNoError {
		t.Errorf("record = %+v", rec)
	}
}

func TestPTRCachingSuppressesRepeat(t *testing.T) {
	h, _, _, _, final, orig := testHierarchy(cachedProfile)
	r := newResolver(0, 0)
	h.Resolve(r, orig, 1000)
	if n := h.Resolve(r, orig, 1010); n != 0 {
		t.Errorf("repeat within PTR TTL sent %d queries, want 0", n)
	}
	// After the PTR TTL (1 h) the final authority is queried again, but
	// the delegations are still warm so root/national stay quiet.
	if n := h.Resolve(r, orig, 1000+simtime.Time(simtime.Hour)); n != 1 {
		t.Errorf("post-TTL resolve sent %d queries, want 1 (final only)", n)
	}
	if final.Seen() != 2 {
		t.Errorf("final saw %d queries, want 2", final.Seen())
	}
}

func TestDelegationExpiryClimbsTree(t *testing.T) {
	h, b, _, nats, _, orig := testHierarchy(
		func(ipaddr.Addr) OriginatorProfile {
			// Zero TTL: the PTR is never cached, isolating delegation caching.
			return OriginatorProfile{HasName: true, Name: "x", TTL: 0, NegTTL: 0}
		})
	r := newResolver(0, 0)
	country := h.Geo.Country(orig)

	h.Resolve(r, orig, 0)
	// Within FinalNSTTL: only the final authority is queried.
	h.Resolve(r, orig, simtime.Time(simtime.Hour))
	if nats[country].Seen() != 1 {
		t.Errorf("national saw %d, want 1 (delegation cached)", nats[country].Seen())
	}
	// After FinalNSTTL but within NationalNSTTL: national queried, root not.
	h.Resolve(r, orig, simtime.Time(7*simtime.Hour))
	if nats[country].Seen() != 2 || b.Seen() != 1 {
		t.Errorf("nat=%d root=%d, want 2/1", nats[country].Seen(), b.Seen())
	}
	// After NationalNSTTL: back to the root.
	h.Resolve(r, orig, simtime.Time(3*simtime.Day))
	if b.Seen() != 2 {
		t.Errorf("root saw %d, want 2", b.Seen())
	}
}

func TestNXDomainNegativeCaching(t *testing.T) {
	h, _, _, _, final, orig := testHierarchy(
		func(ipaddr.Addr) OriginatorProfile {
			return OriginatorProfile{HasName: false, NegTTL: 10 * simtime.Minute}
		})
	r := newResolver(0, 0)
	h.Resolve(r, orig, 0)
	if final.Records()[0].RCode != dnswire.RCodeNXDomain {
		t.Errorf("rcode = %d, want NXDomain", final.Records()[0].RCode)
	}
	if n := h.Resolve(r, orig, 60); n != 0 {
		t.Error("negative cache did not suppress repeat")
	}
	if n := h.Resolve(r, orig, simtime.Time(11*simtime.Minute)); n != 1 {
		t.Errorf("post-negative-TTL resolve sent %d, want 1", n)
	}
}

func TestUnreachableFinal(t *testing.T) {
	h, b, _, nats, final, orig := testHierarchy(
		func(ipaddr.Addr) OriginatorProfile {
			return OriginatorProfile{FinalUnreachable: true}
		})
	r := newResolver(0, 0)
	h.Resolve(r, orig, 0)
	if final.Seen() != 0 {
		t.Error("dead final authority recorded a query")
	}
	country := h.Geo.Country(orig)
	if b.Seen() != 1 || nats[country].Seen() != 1 {
		t.Error("upper levels should still see the lookup")
	}
	// Servfail is remembered briefly.
	if n := h.Resolve(r, orig, 60); n != 0 {
		t.Errorf("retry within ServFailTTL sent %d queries", n)
	}
	if n := h.Resolve(r, orig, simtime.Time(6*simtime.Minute)); n == 0 {
		t.Error("resolver never retried after ServFailTTL")
	}
}

func TestRootPreference(t *testing.T) {
	h, b, m, _, _, _ := testHierarchy(cachedProfile)
	r := NewResolver(ipaddr.MustParse("10.0.0.53"), 0, 0.9, 1024, rng.New(7))
	// Distinct originators in distinct /8s keep the /8 delegation cold.
	for i := 0; i < 200; i++ {
		orig := ipaddr.FromOctets(byte(i), 1, 2, 3)
		h.Resolve(r, orig, simtime.Time(i)*simtime.Time(simtime.Day))
	}
	total := b.Seen() + m.Seen()
	if total == 0 {
		t.Fatal("no root queries at all")
	}
	frac := float64(m.Seen()) / float64(total)
	if frac < 0.75 {
		t.Errorf("M-Root fraction = %.2f, want ≈0.9", frac)
	}
}

func TestBusynessWarmsUpperTree(t *testing.T) {
	profile := func(ipaddr.Addr) OriginatorProfile {
		return OriginatorProfile{HasName: true, Name: "x", TTL: 0}
	}
	countRootQueries := func(busy float64) uint64 {
		h, b, m, _, _, _ := testHierarchy(profile)
		st := rng.New(11)
		// Many distinct resolvers each do one cold lookup of one
		// originator; busy resolvers should skip the root.
		for i := 0; i < 2000; i++ {
			r := NewResolver(ipaddr.Addr(st.Uint64()), busy, 0.5, 64, rng.New(uint64(i)))
			orig := ipaddr.Addr(st.Uint64())
			h.Resolve(r, orig, simtime.Time(i))
			_ = m
		}
		return b.Seen() + m.Seen()
	}
	quiet := countRootQueries(0)
	busy := countRootQueries(0.9)
	if quiet != 2000 {
		t.Errorf("quiet resolvers: root saw %d, want 2000", quiet)
	}
	if busy > quiet/2 {
		t.Errorf("busy resolvers: root saw %d, want heavy suppression vs %d", busy, quiet)
	}
}

func TestSensorSampling(t *testing.T) {
	s := NewSensor("m-sampled", 10)
	for i := 0; i < 1000; i++ {
		s.Observe(simtime.Time(i), 1, 2, 0)
	}
	if s.Seen() != 1000 {
		t.Errorf("Seen = %d", s.Seen())
	}
	if len(s.Records()) != 100 {
		t.Errorf("sampled records = %d, want 100", len(s.Records()))
	}
}

func TestSensorSamplingDeterministic(t *testing.T) {
	a := NewSensor("x", 7)
	b := NewSensor("x", 7)
	for i := 0; i < 100; i++ {
		a.Observe(simtime.Time(i), ipaddr.Addr(i), 2, 0)
		b.Observe(simtime.Time(i), ipaddr.Addr(i), 2, 0)
	}
	if len(a.Records()) != len(b.Records()) {
		t.Fatal("sampling diverged")
	}
	for i := range a.Records() {
		if a.Records()[i] != b.Records()[i] {
			t.Fatal("sampled different records")
		}
	}
}

func TestSensorReset(t *testing.T) {
	s := NewSensor("x", 1)
	for i := 0; i < 5000; i++ { // more than one buffer chunk
		s.Observe(simtime.Time(i), ipaddr.Addr(i), 2, 0)
	}
	taken := s.Records()
	s.Reset()
	if len(s.Records()) != 0 || s.Seen() != 5000 {
		t.Error("Reset must clear records but keep counters")
	}
	s.Observe(6000, 1, 2, 0)
	if s.Len() != 1 || len(taken) != 5000 || taken[0].Time != 0 || taken[4999].Time != 4999 {
		t.Errorf("after Reset and one query: Len %d; the %d records taken before run %d..%d",
			s.Len(), len(taken), taken[0].Time, taken[len(taken)-1].Time)
	}
}

func TestDefaultProfileDeterministic(t *testing.T) {
	a := ipaddr.MustParse("198.51.100.7")
	p1, p2 := DefaultProfile(a), DefaultProfile(a)
	if p1 != p2 {
		t.Error("DefaultProfile not deterministic")
	}
}

// TestSeededProfileMatchesRekeyedDefault pins SeededProfile to what
// bsserve's zone closure computed before it existed — DefaultProfile of
// a + seed with the name rebuilt from a — so no served or logged byte moves.
// The seeds include one above 2^32 (only its low half re-keys) and
// addresses that a + seed wraps.
func TestSeededProfileMatchesRekeyedDefault(t *testing.T) {
	for _, seed := range []uint64{1404, 1<<32 + 7, 0xfffffffe} {
		for i := 0; i < 10000; i++ {
			a := ipaddr.Addr(uint32(i) * 2654435761)
			if i < 16 {
				a = ipaddr.Addr(0xffffffff - uint32(i)) // a + seed passes 2^32
			}
			want := DefaultProfile(a + ipaddr.Addr(seed))
			if want.HasName {
				want.Name = "host-" + a.String() + ".example.net"
			}
			if got := SeededProfile(a, seed); got != want {
				t.Fatalf("SeededProfile(%v, %d) = %+v, want %+v", a, seed, got, want)
			}
		}
	}
	a := ipaddr.MustParse("192.0.2.1")
	if SeededProfile(a, 0) != DefaultProfile(a) {
		t.Error("seed 0 is not DefaultProfile")
	}
}

func TestDefaultProfileMix(t *testing.T) {
	var named, nameless, unreach int
	for i := 0; i < 10000; i++ {
		p := DefaultProfile(ipaddr.Addr(uint32(i) * 2654435761))
		switch {
		case p.FinalUnreachable:
			unreach++
		case p.HasName:
			named++
		default:
			nameless++
		}
	}
	if named < 7000 || named > 8500 {
		t.Errorf("named = %d, want ≈78%%", named)
	}
	if nameless < 1000 || nameless > 2500 {
		t.Errorf("nameless = %d, want ≈16%%", nameless)
	}
	if unreach < 300 || unreach > 1200 {
		t.Errorf("unreachable = %d, want ≈6%%", unreach)
	}
}

func BenchmarkResolveCold(b *testing.B) {
	g := geo.NewRegistry(42)
	h := NewHierarchy(g, DefaultConfig(), cachedProfile)
	h.AttachRoots(NewSensor("b-root", 1), NewSensor("m-root", 1))
	r := newResolver(0, 0.5)
	st := rng.New(3)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Resolve(r, ipaddr.Addr(st.Uint64()), simtime.Time(i))
	}
}

func BenchmarkResolveCached(b *testing.B) {
	g := geo.NewRegistry(42)
	h := NewHierarchy(g, DefaultConfig(), cachedProfile)
	r := newResolver(0, 0.5)
	orig := ipaddr.MustParse("100.50.3.4")
	h.Resolve(r, orig, 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Resolve(r, orig, 1)
	}
}

// TestHierarchyMetricsAttenuation checks that the per-level query counters
// express §IV-D attenuation directly: repeat resolutions inside the
// delegation TTLs reach the final authority only, so
// dnssim_queries_total{level=final} outgrows root and national.
func TestHierarchyMetricsAttenuation(t *testing.T) {
	reg := obs.NewRegistry()
	h, _, _, _, _, orig := wiredHierarchy(nil, reg,
		func(ipaddr.Addr) OriginatorProfile {
			// Zero PTR TTL isolates delegation caching.
			return OriginatorProfile{HasName: true, Name: "x", TTL: 0, NegTTL: 0}
		})
	r := new(Resolver)
	r.Init(NewCaches(1024, reg), 0, ipaddr.MustParse("10.0.0.53"), 0, 0, *rng.New(7))

	for i := 0; i < 10; i++ {
		h.Resolve(r, orig, simtime.Time(i)*60)
	}
	lv := func(level string) uint64 {
		t.Helper()
		return reg.Counter("dnssim_queries_total", obs.L("level", level)).Value()
	}
	if got := lv("root"); got != 1 {
		t.Errorf("root queries = %d, want 1", got)
	}
	if got := lv("national"); got != 1 {
		t.Errorf("national queries = %d, want 1", got)
	}
	if got := lv("final"); got != 10 {
		t.Errorf("final queries = %d, want 10", got)
	}
	if got := reg.Counter("dnssim_resolves_total").Value(); got != 10 {
		t.Errorf("resolves = %d, want 10", got)
	}
	if got := reg.Counter("dnssim_cached_total").Value(); got != 0 {
		t.Errorf("cached resolves = %d, want 0 with zero PTR TTL", got)
	}
	// The resolver cache counted its delegation hits under the shared name.
	hits := reg.Counter("cache_hits_total", obs.L("cache", "resolver"), obs.L("tier", "z16")).Value()
	if hits != 9 {
		t.Errorf("z16 delegation hits = %d, want 9", hits)
	}
}

// TestHierarchyMetricsCachedAndQMin covers the cached-resolve counter and
// the QNAME-minimization visibility counter.
func TestHierarchyMetricsCachedAndQMin(t *testing.T) {
	reg := obs.NewRegistry()
	h, _, _, _, _, orig := wiredHierarchy(nil, reg, cachedProfile)
	r := newResolver(0, 0)
	r.QNameMin = true
	h.Resolve(r, orig, 1000)
	h.Resolve(r, orig, 1010) // inside the PTR TTL: fully cached
	if got := reg.Counter("dnssim_cached_total").Value(); got != 1 {
		t.Errorf("cached resolves = %d, want 1", got)
	}
	// A minimizing resolver hides the originator at root and national:
	// two upper-level queries, both hidden.
	if got := reg.Counter("dnssim_qmin_hidden_total").Value(); got != 2 {
		t.Errorf("qmin-hidden queries = %d, want 2", got)
	}
}

// TestWalkDefersToDeliver: walks only collect taps — no sensor counts an
// arrival until Deliver — and a 1:2 sampler decides by the order taps are
// delivered in, not the order their walks ran in.
func TestWalkDefersToDeliver(t *testing.T) {
	run := func(reverse bool) ipaddr.Addr {
		h, _, _, _, _, orig := testHierarchy(cachedProfile)
		final := NewSensor("final", 2)
		h.AttachFinal(orig.Slash16(), final)
		var taps [2][]Tap
		for i := range taps {
			r := NewResolver(ipaddr.Addr(0x0a000001+i), 0, 0, 64, rng.New(uint64(i)))
			sub := h.Subject(orig)
			if n := h.Walk(&taps[i], uint32(i), r, &sub, 1000, nil); n != 3 {
				t.Fatalf("cold walk sent %d queries, want 3", n)
			}
		}
		if final.Seen() != 0 {
			t.Fatal("a sensor saw a query before Deliver")
		}
		if reverse {
			taps[0], taps[1] = taps[1], taps[0]
		}
		Deliver(taps[0])
		Deliver(taps[1])
		if final.Seen() != 2 || final.Len() != 1 {
			t.Fatalf("1:2 sensor saw %d and kept %d, want 2 and 1", final.Seen(), final.Len())
		}
		return final.Records()[0].Querier
	}
	if a, b := run(false), run(true); a == b {
		t.Errorf("the sampled record came from %v whichever walk was delivered second", a)
	}
}

// A count-only sensor is its keeping twin minus the buffer: same horizon,
// same count, same sampling decision for every query.
func TestCountOnlySensor(t *testing.T) {
	for _, sample := range []int{1, 10} {
		keep, count := NewSensor("m-root", sample), NewSensor("m-root", sample)
		keep.End, count.End = 500, 500
		count.CountOnly = true
		kept := 0
		for i := 0; i < 1000; i++ {
			now := simtime.Time(i)
			if i%7 == 0 {
				now = simtime.Time(1000 - i) // out of order, straddling End
			}
			k := keep.Observe(now, ipaddr.Addr(i), 9, 0)
			if c := count.Observe(now, ipaddr.Addr(i), 9, 0); c != k {
				t.Fatalf("sample %d, query %d at %d: count-only Observe = %v, keeping %v", sample, i, now, c, k)
			}
			if k {
				kept++
			}
		}
		if keep.Seen() != count.Seen() || keep.Seen() == 0 || keep.Seen() == 1000 {
			t.Errorf("sample %d: Seen %d vs %d of 1000 with a horizon inside", sample, keep.Seen(), count.Seen())
		}
		if keep.Len() != kept {
			t.Errorf("sample %d: kept %d, Observe said %d", sample, keep.Len(), kept)
		}
		for name, read := range map[string]func(){
			"Len":     func() { count.Len() },
			"Records": func() { count.Records() },
			"Range":   func() { count.Range(0, func(dnslog.Record) {}) },
		} {
			func() {
				defer func() {
					if msg, _ := recover().(string); !strings.Contains(msg, "m-root") {
						t.Errorf("%s on a count-only sensor: recovered %q, want a panic naming it", name, msg)
					}
				}()
				read()
			}()
		}
	}
}

// TestSensorObserveAllocs: Observe allocates nothing for a query past the
// horizon, a sampled-out query or a count-only sensor. A kept record costs
// only its share of the buffer's chunk, one allocation per 4096 records,
// which averages to 0 over the runs.
func TestSensorObserveAllocs(t *testing.T) {
	late := NewSensor("m-root", 1)
	late.End = 100
	sampled := NewSensor("m-sampled", 1<<30)
	count := NewSensor("m-root", 1)
	count.CountOnly = true
	kept := NewSensor("m-root", 1)
	for name, s := range map[string]*Sensor{"past End": late, "sampled out": sampled, "count-only": count, "kept": kept} {
		if a := testing.AllocsPerRun(10000, func() { s.Observe(200, 1, 2, 0) }); a != 0 {
			t.Errorf("%s: %.1f allocations a query, want 0", name, a)
		}
	}
	if late.Seen() != 0 || sampled.Seen() != 10001 || count.Seen() != 10001 || kept.Len() != 10001 {
		t.Errorf("seen %d, %d, %d, kept %d: not the paths the test names", late.Seen(), sampled.Seen(), count.Seen(), kept.Len())
	}
}
