package dnsserver

import (
	"slices"
	"sync"
	"testing"
	"time"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
)

// liveHierarchy is a three-level reverse-DNS deployment on loopback: one
// root, one national registry covering /8s 100 and 101, and one final
// authority per /16 queried.
type liveHierarchy struct {
	root     *Server
	national *Server
	final    *Server

	mu      sync.Mutex
	records map[string][]dnslog.Record // authority -> records
}

func startHierarchy(t *testing.T) *liveHierarchy {
	return startHierarchyWith(t, func(string, *Config) {})
}

// startHierarchyWith lets wire add instruments (faults, registry, tracer)
// to each level's config before that level's server starts.
func startHierarchyWith(t *testing.T, wire func(level string, cfg *Config)) *liveHierarchy {
	t.Helper()
	h := &liveHierarchy{records: make(map[string][]dnslog.Record)}
	listen := func(name string, handler Handler) *Server {
		cfg := Config{Authority: name, Handler: handler, Sink: func(rs []dnslog.Record) {
			h.mu.Lock()
			h.records[name] = append(h.records[name], rs...)
			h.mu.Unlock()
		}}
		wire(name, &cfg)
		s, err := Listen("127.0.0.1:0", cfg)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}

	// Final authority: every /16 under /8s 100-101 answers from a fixed
	// profile (1 h PTR TTL).
	final := listen("final", FinalHandler(func(a ipaddr.Addr) dnssim.OriginatorProfile {
		return dnssim.OriginatorProfile{
			HasName: true,
			Name:    "origin-" + a.String() + ".example.net",
			TTL:     simtime.Hour,
		}
	}))
	h.final = final

	// National registry: refers every /16 it covers to the final server,
	// for the simulator's /16 delegation TTL (6 h).
	national := listen("national", ReferralHandler(func(a ipaddr.Addr) (Delegation, bool) {
		if a.Slash8() != 100 && a.Slash8() != 101 {
			return Delegation{}, false
		}
		o0, o1, _, _ := a.Octets()
		zone := itoa(int(o1)) + "." + itoa(int(o0)) + ".in-addr.arpa"
		return Delegation{Zone: zone, NS: "ns.final.example", Addr: final.Addr(), TTL: dnssim.FinalNSTTL}, true
	}))
	h.national = national

	// Root: refers /8s 100-101 to the national registry for the
	// simulator's /8 delegation TTL (2 d).
	root := listen("root", ReferralHandler(func(a ipaddr.Addr) (Delegation, bool) {
		if a.Slash8() != 100 && a.Slash8() != 101 {
			return Delegation{}, false
		}
		zone := itoa(int(a.Slash8())) + ".in-addr.arpa"
		return Delegation{Zone: zone, NS: "ns.registry.example", Addr: national.Addr(), TTL: dnssim.NationalNSTTL}, true
	}))
	h.root = root
	return h
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [3]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

// count flushes the three servers and returns how many records the
// named authority's sink has seen.
func (h *liveHierarchy) count(authority string) int {
	h.root.Flush()
	h.national.Flush()
	h.final.Flush()
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.records[authority])
}

func newRecursor(h *liveHierarchy) *Recursor {
	r := NewRecursor(nil, nil, h.root.Addr().String())
	r.Client.Timeout = 400 * time.Millisecond
	return r
}

func TestRecursorColdWalk(t *testing.T) {
	h := startHierarchy(t)
	r := newRecursor(h)
	orig := ipaddr.MustParse("100.50.3.4")
	target, tr, err := r.ResolvePTR(orig, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if target != "origin-100.50.3.4.example.net" {
		t.Errorf("target = %q", target)
	}
	if !tr.Root || !tr.National || !tr.Final {
		t.Errorf("cold walk trace = %+v, want all three levels", tr)
	}
	if h.count("root") != 1 || h.count("national") != 1 || h.count("final") != 1 {
		t.Errorf("sensor counts root=%d national=%d final=%d, want 1/1/1",
			h.count("root"), h.count("national"), h.count("final"))
	}
}

func TestRecursorCacheAttenuation(t *testing.T) {
	h := startHierarchy(t)
	r := newRecursor(h)
	orig := ipaddr.MustParse("100.50.3.4")
	if _, _, err := r.ResolvePTR(orig, 0); err != nil {
		t.Fatal(err)
	}

	// Within the PTR TTL: fully cached, nothing contacted.
	_, tr, err := r.ResolvePTR(orig, simtime.Time(30*simtime.Minute))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root || tr.National || tr.Final || tr.Queries != 0 {
		t.Errorf("cached resolve trace = %+v", tr)
	}

	// Past the PTR TTL but inside both delegation TTLs: final only.
	_, tr, err = r.ResolvePTR(orig, simtime.Time(2*simtime.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root || tr.National || !tr.Final {
		t.Errorf("post-PTR-TTL trace = %+v, want final only", tr)
	}

	// Past the /16 delegation TTL: national + final, root still warm.
	_, tr, err = r.ResolvePTR(orig, simtime.Time(8*simtime.Hour))
	if err != nil {
		t.Fatal(err)
	}
	if tr.Root || !tr.National || !tr.Final {
		t.Errorf("post-z16-TTL trace = %+v, want national+final", tr)
	}

	// Past the /8 delegation TTL: the full walk again.
	_, tr, err = r.ResolvePTR(orig, simtime.Time(3*simtime.Day))
	if err != nil {
		t.Fatal(err)
	}
	if !tr.Root || !tr.National || !tr.Final {
		t.Errorf("post-z8-TTL trace = %+v, want full walk", tr)
	}
}

func TestRecursorSharesDelegationsAcrossOriginators(t *testing.T) {
	h := startHierarchy(t)
	r := newRecursor(h)
	// Many originators in the same /16: the root and national servers
	// hear about the first only — the attenuation of §IV-D, live.
	for i := 0; i < 20; i++ {
		orig := ipaddr.FromOctets(100, 50, byte(i), 7)
		if _, _, err := r.ResolvePTR(orig, simtime.Time(i)); err != nil {
			t.Fatal(err)
		}
	}
	if h.count("root") != 1 {
		t.Errorf("root saw %d queries for 20 same-/16 originators, want 1", h.count("root"))
	}
	if h.count("national") != 1 {
		t.Errorf("national saw %d queries, want 1", h.count("national"))
	}
	if h.count("final") != 20 {
		t.Errorf("final saw %d queries, want 20", h.count("final"))
	}

	// A different /16 in the same /8 re-asks the national server only.
	if _, _, err := r.ResolvePTR(ipaddr.MustParse("100.60.1.1"), 100); err != nil {
		t.Fatal(err)
	}
	if h.count("root") != 1 || h.count("national") != 2 {
		t.Errorf("after new /16: root=%d national=%d, want 1/2", h.count("root"), h.count("national"))
	}
}

func TestRecursorOutsideDelegation(t *testing.T) {
	h := startHierarchy(t)
	r := newRecursor(h)
	// /8 200 is not delegated: the root answers NXDomain.
	target, tr, err := r.ResolvePTR(ipaddr.MustParse("200.1.2.3"), 0)
	if err != nil {
		t.Fatal(err)
	}
	if target != "" || !tr.Root || tr.National {
		t.Errorf("undelegated resolve: target=%q trace=%+v", target, tr)
	}
	// The NXDomain, which carries no SOA, is negative-cached for ServFailTTL.
	_, tr, err = r.ResolvePTR(ipaddr.MustParse("200.1.2.3"), 60)
	if err != nil {
		t.Fatal(err)
	}
	if tr.Queries != 0 {
		t.Errorf("negative cache miss: %+v", tr)
	}
}

func TestRecursorNoRoots(t *testing.T) {
	tr := trace.New(1, 1)
	r := NewRecursor(nil, tr)
	if _, _, err := r.ResolvePTR(ipaddr.MustParse("100.1.2.3"), 0); err == nil {
		t.Error("rootless recursor resolved")
	}
	gaveUp(t, tr)
}

// gaveUp fails t unless tr holds exactly one committed trace and that
// trace ended in a give-up.
func gaveUp(t *testing.T, tr *trace.Tracer) {
	t.Helper()
	ts := tr.Traces(trace.Filter{})
	if len(ts) != 1 || !slices.ContainsFunc(ts[0].Events, func(ev trace.Event) bool { return ev.Kind == trace.KindGiveUp }) {
		t.Errorf("committed traces %+v, want one with a give-up", ts)
	}
}

// TestRecursorHonorsNegTTL pins RFC 2308 on the live walk: the final's
// NXDOMAIN carries an SOA whose TTL is the zone's NegTTL, and the
// recursor caches the NXDOMAIN for exactly that long, as the simulated
// walk does.
func TestRecursorHonorsNegTTL(t *testing.T) {
	const negTTL = 20 * simtime.Minute
	h := startHierarchyWith(t, func(level string, cfg *Config) {
		if level == "final" {
			cfg.Handler = FinalHandler(func(ipaddr.Addr) dnssim.OriginatorProfile {
				return dnssim.OriginatorProfile{NegTTL: negTTL}
			})
		}
	})
	r := newRecursor(h)
	orig := ipaddr.MustParse("100.50.3.4")
	for _, c := range []struct {
		at     simtime.Time
		finals int
	}{{0, 1}, {simtime.Time(negTTL - 1), 1}, {simtime.Time(negTTL + 1), 2}} {
		if target, _, err := r.ResolvePTR(orig, c.at); err != nil || target != "" {
			t.Fatalf("lookup at %d s: %q, %v; want NXDOMAIN", c.at, target, err)
		}
		if got := h.count("final"); got != c.finals {
			t.Errorf("at %d s the final has seen %d queries, want %d", c.at, got, c.finals)
		}
	}
}

func TestConcurrentRecursors(t *testing.T) {
	h := startHierarchy(t)
	var wg sync.WaitGroup
	errs := make(chan error, 16)
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			r := newRecursor(h)
			for k := 0; k < 4; k++ {
				orig := ipaddr.FromOctets(101, byte(i), byte(k), 9)
				if _, _, err := r.ResolvePTR(orig, simtime.Time(k)); err != nil {
					errs <- err
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if h.count("final") != 64 {
		t.Errorf("final saw %d queries, want 64", h.count("final"))
	}
}

// TestRecursorMetrics pins the live hierarchy's observability: the
// simulated walk's lookup, cache-hit and per-level query counters, and the
// instrumented servers' query/response counters.
func TestRecursorMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	h := startHierarchyWith(t, func(_ string, cfg *Config) { cfg.Obs = reg })
	tr := trace.New(1, 1)
	r := NewRecursor(reg, tr, h.root.Addr().String())
	r.Client.Timeout = 400 * time.Millisecond

	orig := ipaddr.MustParse("100.50.3.4")
	if _, _, err := r.ResolvePTR(orig, 0); err != nil { // cold: full walk
		t.Fatal(err)
	}
	if _, _, err := r.ResolvePTR(orig, 60); err != nil { // warm: cache hit
		t.Fatal(err)
	}
	// Past the PTR TTL, inside delegation TTLs: final level only.
	if _, _, err := r.ResolvePTR(orig, simtime.Time(2*simtime.Hour)); err != nil {
		t.Fatal(err)
	}

	counter := func(name string, labels ...obs.Label) uint64 {
		t.Helper()
		return reg.Counter(name, labels...).Value()
	}
	if got := tr.Len(); got != 3 {
		t.Errorf("recursor committed %d traces, want one per resolution", got)
	}
	if got := counter("dnssim_cached_total"); got != 1 {
		t.Errorf("recursor hits = %d, want 1", got)
	}
	if got := counter("dnssim_resolves_total"); got != 3 {
		t.Errorf("recursor lookups = %d, want 3", got)
	}
	// Attenuation in the counters themselves: root and national saw the
	// cold walk only, final also the post-TTL re-fetch.
	for _, c := range []struct {
		level string
		want  uint64
	}{{"root", 1}, {"national", 1}, {"final", 2}} {
		if got := counter("dnssim_queries_total", obs.L("level", c.level)); got != c.want {
			t.Errorf("upstream queries at %s = %d, want %d", c.level, got, c.want)
		}
	}
	if got := counter("dnsclient_queries_total"); got != 4 {
		t.Errorf("client queries = %d, want 4", got)
	}
	if got := counter("dnsclient_retransmits_total"); got != 0 {
		t.Errorf("client retransmits = %d, want 0", got)
	}
	// Server-side: each authority counted what reached it, and every
	// response was NoError.
	for _, c := range []struct {
		authority string
		want      uint64
	}{{"root", 1}, {"national", 1}, {"final", 2}} {
		la := obs.L("authority", c.authority)
		if got := counter("dnsserver_queries_total", la); got != c.want {
			t.Errorf("server queries at %s = %d, want %d", c.authority, got, c.want)
		}
		if got := counter("dnsserver_responses_total", la, obs.L("rcode", "0")); got != c.want {
			t.Errorf("rcode-0 responses at %s = %d, want %d", c.authority, got, c.want)
		}
	}
	// The recursor's cache counters use the shared tier scheme.
	if got := counter("cache_misses_total", obs.L("cache", "recursor"), obs.L("tier", "ptr")); got != 2 {
		t.Errorf("recursor ptr-tier misses = %d, want 2", got)
	}
	if got := counter("cache_hits_total", obs.L("cache", "recursor"), obs.L("tier", "z16")); got != 1 {
		t.Errorf("recursor z16-tier hits = %d, want 1", got)
	}
}
