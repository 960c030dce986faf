package dnsserver

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/faults"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
)

// startFinal binds a final authority whose every originator has a PTR,
// serving under the given fault profile and counting into reg.
func startFinal(t *testing.T, fault faults.Profile, reg *obs.Registry) *Server {
	t.Helper()
	s, err := Listen("127.0.0.1:0", Config{
		Authority: "final",
		Handler: FinalHandler(func(a ipaddr.Addr) dnssim.OriginatorProfile {
			return dnssim.OriginatorProfile{HasName: true, Name: "host-" + a.String() + ".example.net", TTL: simtime.Hour}
		}),
		Faults: faults.New(fault, 1),
		Obs:    reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestTruncationFallsBackToTCP pins the TC path end to end over real
// sockets: a server that truncates every UDP answer forces the client
// onto TCP, where it gets the full answer; both sides count the
// fallback.
func TestTruncationFallsBackToTCP(t *testing.T) {
	reg := obs.NewRegistry()
	s := startFinal(t, faults.Profile{Name: "tc", Truncate: 1.0}, reg)

	c := &Client{Timeout: 500 * time.Millisecond, Obs: reg}
	target, rcode, _, err := c.LookupPTR(s.Addr().String(), ipaddr.MustParse("100.50.3.4"))
	if err != nil {
		t.Fatal(err)
	}
	if rcode != dnswire.RCodeNoError || target != "host-100.50.3.4.example.net" {
		t.Fatalf("TCP fallback answer = %q rcode=%d", target, rcode)
	}
	if got := reg.Counter("dnsclient_tcp_fallbacks_total").Value(); got != 1 {
		t.Errorf("dnsclient_tcp_fallbacks_total = %d, want 1", got)
	}
	if got := reg.Counter("resolver_tcp_fallbacks_total").Value(); got != 1 {
		t.Errorf("resolver_tcp_fallbacks_total = %d, want 1", got)
	}
	la := obs.L("authority", "final")
	if got := reg.Counter("dnsserver_tcp_queries_total", la).Value(); got != 1 {
		t.Errorf("dnsserver_tcp_queries_total = %d, want 1", got)
	}
	if got := reg.Counter("faults_injected_total", obs.L("kind", "truncate")).Value(); got != 1 {
		t.Errorf("faults_injected_total{kind=truncate} = %d, want 1", got)
	}
}

// TestServerDropsFaultedQueries pins the loss path: a blackholed server
// answers nothing, the client backs off through its retries and gives
// up with ErrTimeout, and both the injections and the giveup are
// counted.
func TestServerDropsFaultedQueries(t *testing.T) {
	reg := obs.NewRegistry()
	s := startFinal(t, faults.Profile{Name: "blackhole", Loss: 1.0}, reg)

	c := &Client{Timeout: 50 * time.Millisecond, Retries: 1, Obs: reg}
	_, _, sent, err := c.LookupPTR(s.Addr().String(), ipaddr.MustParse("100.50.3.4"))
	if !errors.Is(err, ErrTimeout) {
		t.Fatalf("err = %v, want ErrTimeout", err)
	}
	if sent != 2 {
		t.Errorf("sent = %d datagrams, want 2 (initial + 1 retry)", sent)
	}
	if got := reg.Counter("resolver_retries_total").Value(); got != 1 {
		t.Errorf("resolver_retries_total = %d, want 1", got)
	}
	if got := reg.Counter("resolver_gaveup_total").Value(); got != 1 {
		t.Errorf("resolver_gaveup_total = %d, want 1", got)
	}
	if got := reg.Counter("faults_injected_total", obs.L("kind", "loss")).Value(); got != 2 {
		t.Errorf("faults_injected_total{kind=loss} = %d, want 2", got)
	}
}

// TestServerServFailFault pins the SERVFAIL path: the client sees rcode
// 2, and a recursor treats it as a brief negative-cache entry instead of
// chasing referrals.
func TestServerServFailFault(t *testing.T) {
	reg := obs.NewRegistry()
	s := startFinal(t, faults.Profile{Name: "storm", ServFail: 1.0}, reg)

	c := &Client{Timeout: 500 * time.Millisecond, Obs: reg}
	_, rcode, _, err := c.LookupPTR(s.Addr().String(), ipaddr.MustParse("100.50.3.4"))
	if err != nil {
		t.Fatal(err)
	}
	if rcode != dnswire.RCodeServFail {
		t.Fatalf("rcode = %d, want SERVFAIL", rcode)
	}

	r := NewRecursor(nil, nil, s.Addr().String())
	r.Client.Timeout = 400 * time.Millisecond
	_, tr, err := r.ResolvePTR(ipaddr.MustParse("100.50.3.4"), 1000)
	if err == nil {
		t.Fatal("recursor resolved through a SERVFAIL storm")
	}
	if tr.Queries == 0 {
		t.Error("recursor sent no queries")
	}
	// The failure is negative-cached: no new queries inside ServFailTTL.
	_, tr, _ = r.ResolvePTR(ipaddr.MustParse("100.50.3.4"), 1060)
	if tr.Queries != 0 {
		t.Errorf("SERVFAIL not negative-cached: %d queries on retry", tr.Queries)
	}
}

// TestRecursorSurvivesLossyPath checks graceful degradation end to end:
// with 20% loss at every level, a batch of recursive lookups completes —
// some lookups may fail with ErrTimeout, none may fail any other way,
// and most succeed via retries.
func TestRecursorSurvivesLossyPath(t *testing.T) {
	plan := faults.New(faults.Profile{Name: "lossy", Loss: 0.20}, 42)
	reg := obs.NewRegistry()
	h := startHierarchyWith(t, func(level string, cfg *Config) {
		cfg.Faults = plan
		// A server draws a datagram's loss per (peer, name, clock
		// second), and a lookup retransmits from one socket. On the wall
		// clock, retransmits inside one second share a fate; a clock that
		// ticks a second per read gives every datagram its own draw.
		var now atomic.Int64
		cfg.Clock = func() simtime.Time { return simtime.Time(now.Add(1)) }
		if level == "final" {
			cfg.Obs = reg
		}
	})

	r := newRecursor(h)
	r.Client.Timeout = 120 * time.Millisecond
	r.Client.Retries = 3
	r.Client.Obs = reg
	okCount := 0
	for i := 0; i < 30; i++ {
		orig := ipaddr.FromOctets(100, 50, byte(i), 7)
		target, _, err := r.ResolvePTR(orig, simtime.Time(i))
		if err != nil {
			if !errors.Is(err, ErrTimeout) {
				t.Fatalf("lookup %d failed unexpectedly: %v", i, err)
			}
			continue
		}
		if target == "" {
			t.Fatalf("lookup %d returned empty target without error", i)
		}
		okCount++
	}
	// P(all 4 attempts lost) = 0.2^4 = 0.16%; 30 lookups nearly all land.
	if okCount < 25 {
		t.Errorf("only %d/30 lookups succeeded at 20%% loss with 3 retries", okCount)
	}
	if reg.Counter("faults_injected_total", obs.L("kind", "loss")).Value() == 0 {
		t.Error("no losses injected at the final authority")
	}
}
