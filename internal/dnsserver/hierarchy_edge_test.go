package dnsserver

import (
	"net"
	"net/netip"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/faults"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
)

// referralOf runs one question through a ReferralHandler and returns the
// response.
func referralOf(t *testing.T, del Delegation, ok bool) *dnswire.Message {
	t.Helper()
	h := ReferralHandler(func(ipaddr.Addr) (Delegation, bool) { return del, ok })
	q := dnswire.NewPTRQuery(1, ipaddr.MustParse("100.50.3.4").ReverseName())
	resp := new(dnswire.Message)
	if _, _, answer := h(q, netip.MustParseAddrPort("127.0.0.1:5353"), resp); !answer {
		t.Fatal("referral handler stayed silent")
	}
	return resp
}

// TestReferralTargetMalformed walks referralTarget through the malformed
// shapes a hostile or buggy authority can emit.
func TestReferralTargetMalformed(t *testing.T) {
	base := Delegation{
		Zone: "50.100.in-addr.arpa",
		NS:   "ns.final.example",
		Addr: &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1), Port: 5300},
		TTL:  simtime.Hour,
	}

	// A well-formed referral round-trips.
	resp := referralOf(t, base, true)
	zone, addr, ttl, ok := referralTarget(resp)
	if !ok || zone != base.Zone || addr.Port != 5300 || ttl != simtime.Hour {
		t.Fatalf("well-formed referral: zone=%q addr=%v ttl=%d ok=%v", zone, addr, ttl, ok)
	}

	// No NS record at all: not a referral.
	m := &dnswire.Message{}
	if _, _, _, ok := referralTarget(m); ok {
		t.Error("empty message parsed as referral")
	}

	// NS without any glue: lame.
	m = &dnswire.Message{Authority: []dnswire.RR{{Name: "z", Type: dnswire.TypeNS, Target: "ns.x"}}}
	if _, _, _, ok := referralTarget(m); ok {
		t.Error("glueless referral parsed")
	}

	// Glue under the wrong name: still lame.
	m.Additional = []dnswire.RR{{Name: "ns.other", Type: dnswire.TypeA, RData: []byte{127, 0, 0, 1}}}
	if _, _, _, ok := referralTarget(m); ok {
		t.Error("mis-named glue parsed")
	}

	// A record with truncated rdata: lame.
	m.Additional = []dnswire.RR{{Name: "ns.x", Type: dnswire.TypeA, RData: []byte{127, 0}}}
	if _, _, _, ok := referralTarget(m); ok {
		t.Error("short A rdata parsed")
	}

	// Valid A but a short SRV: the port falls back to 53.
	m.Additional = []dnswire.RR{
		{Name: "ns.x", Type: dnswire.TypeA, RData: []byte{127, 0, 0, 1}},
		{Name: "ns.x", Type: dnswire.TypeSRV, RData: []byte{0, 0}},
	}
	if _, addr, _, ok := referralTarget(m); !ok || addr.Port != 53 {
		t.Errorf("short-SRV referral: addr=%v ok=%v, want port 53", addr, ok)
	}
}

// TestRecursorLameDelegation pins the give-up for an authority that
// answers NoError with no referral and no answer: an error, a committed
// trace with a give-up, and no second query inside ServFailTTL.
func TestRecursorLameDelegation(t *testing.T) {
	lame, err := Listen("127.0.0.1:0", Config{Authority: "lame",
		Handler: func(q *dnswire.Message, _ netip.AddrPort, resp *dnswire.Message) (dnslog.Record, bool, bool) {
			resp.SetResponse(q, dnswire.RCodeNoError)
			return dnslog.Record{}, false, true
		}})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { lame.Close() })

	tr := trace.New(1, 1)
	r := NewRecursor(nil, tr, lame.Addr().String())
	r.Client.Timeout = 300 * time.Millisecond
	_, _, rerr := r.ResolvePTR(ipaddr.MustParse("100.50.3.4"), 0)
	if rerr == nil || !strings.Contains(rerr.Error(), "lame") {
		t.Fatalf("err = %v, want lame-response error", rerr)
	}
	gaveUp(t, tr)
	if _, q, _ := r.ResolvePTR(ipaddr.MustParse("100.50.3.4"), simtime.Time(servFailTTL-1)); q.Queries != 0 || lame.Queries() != 1 {
		t.Errorf("retry inside ServFailTTL sent %d queries, the lame server saw %d; want 0 and 1", q.Queries, lame.Queries())
	}
}

// TestRecursorDelegationLoop pins the maxChase bound: a server that
// refers every query to itself must not hang the recursor.
func TestRecursorDelegationLoop(t *testing.T) {
	// The handler exists before the server it refers to does, so the
	// address reaches it through an atomic once Listen has returned.
	var self atomic.Pointer[net.UDPAddr]
	loop, err := Listen("127.0.0.1:0", Config{Authority: "loop",
		Handler: ReferralHandler(func(ipaddr.Addr) (Delegation, bool) {
			return Delegation{Zone: "100.in-addr.arpa", NS: "ns.loop.example",
				Addr: self.Load(), TTL: simtime.Hour}, true
		})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { loop.Close() })
	self.Store(loop.Addr())

	r := NewRecursor(nil, nil, loop.Addr().String())
	r.Client.Timeout = 300 * time.Millisecond
	_, tr, rerr := r.ResolvePTR(ipaddr.MustParse("100.50.3.4"), 0)
	if rerr == nil || !strings.Contains(rerr.Error(), "referral chain") {
		t.Fatalf("err = %v, want chain-exceeded error", rerr)
	}
	if tr.Queries != maxChase {
		t.Errorf("loop sent %d queries, want %d", tr.Queries, maxChase)
	}
	// The exhausted chase is negative-cached like every give-up.
	if _, tr, _ = r.ResolvePTR(ipaddr.MustParse("100.50.3.4"), 60); tr.Queries != 0 {
		t.Errorf("retry of an exhausted chase sent %d queries, want 0", tr.Queries)
	}
}

// TestRecursorDeadDelegation pins the path where a referral points at a
// server that never answers: the client times out and the recursor
// negative-caches the failure.
func TestRecursorDeadDelegation(t *testing.T) {
	// Reserve a port with no listener behind it.
	dead, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Fatal(err)
	}
	deadAddr := dead.LocalAddr().(*net.UDPAddr)
	if err := dead.Close(); err != nil {
		t.Fatal(err)
	}

	ref, err := Listen("127.0.0.1:0", Config{Authority: "ref",
		Handler: ReferralHandler(func(ipaddr.Addr) (Delegation, bool) {
			return Delegation{Zone: "100.in-addr.arpa", NS: "ns.dead.example",
				Addr: deadAddr, TTL: simtime.Hour}, true
		})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ref.Close() })

	r := NewRecursor(nil, nil, ref.Addr().String())
	r.Client.Timeout = 80 * time.Millisecond
	_, _, rerr := r.ResolvePTR(ipaddr.MustParse("100.50.3.4"), 0)
	if rerr == nil {
		t.Fatal("resolution through a dead delegation succeeded")
	}
	// Negative-cached: the retry sends nothing.
	_, tr, _ := r.ResolvePTR(ipaddr.MustParse("100.50.3.4"), 60)
	if tr.Queries != 0 {
		t.Errorf("dead delegation not negative-cached: %d queries", tr.Queries)
	}
}

// TestEmptyZoneAnswersNXDomain pins the final authority's behavior for a
// zone with no names at all.
func TestEmptyZoneAnswersNXDomain(t *testing.T) {
	s, err := Listen("127.0.0.1:0", Config{Authority: "empty",
		Handler: FinalHandler(func(ipaddr.Addr) dnssim.OriginatorProfile {
			return dnssim.OriginatorProfile{} // no PTR for anyone
		})})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	c := &Client{Timeout: 300 * time.Millisecond}
	target, rcode, _, err := c.LookupPTR(s.Addr().String(), ipaddr.MustParse("100.50.3.4"))
	if err != nil {
		t.Fatal(err)
	}
	if target != "" || rcode != dnswire.RCodeNXDomain {
		t.Errorf("empty zone answered %q rcode=%d, want NXDomain", target, rcode)
	}
}

// TestRecursorThroughTruncatingNational pins TC handling mid-chain: a
// national registry whose every UDP answer is truncated still delegates
// correctly because the client re-asks over TCP.
func TestRecursorThroughTruncatingNational(t *testing.T) {
	h := startHierarchyWith(t, func(level string, cfg *Config) {
		if level == "national" {
			cfg.Faults = faults.New(faults.Profile{Name: "tc", Truncate: 1.0}, 1)
		}
	})

	r := newRecursor(h)
	target, tr, err := r.ResolvePTR(ipaddr.MustParse("100.50.3.4"), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if target != "origin-100.50.3.4.example.net" {
		t.Errorf("target = %q", target)
	}
	if !tr.Root || !tr.National || !tr.Final {
		t.Errorf("trace = %+v, want full walk through the TC hop", tr)
	}
	// The truncated UDP query and its TCP retry (a batch of one) are both
	// logged.
	if got := h.count("national"); got != 2 {
		t.Errorf("national logged %d records, want 2", got)
	}
}
