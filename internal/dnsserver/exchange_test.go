package dnsserver

import (
	"net"
	"net/netip"
	"testing"
	"time"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
)

// TestExchangeAllocs holds one query's trip through a server wired as
// bsserve wires it (seeded zone, metrics on a window, a 512-trace ring
// tracing every query) to its allocations: the decoded question's name
// for every query, the PTR name too for a NOERROR answer, and at most one
// more traced on a full ring.
func TestExchangeAllocs(t *testing.T) {
	zone := func(a ipaddr.Addr) dnssim.OriginatorProfile { return dnssim.SeededProfile(a, 1404) }
	queries := map[string][]byte{}
	for i := 0; len(queries) < 3; i++ {
		a := ipaddr.FromOctets(198, 51, 100, byte(i))
		kind := "nxdomain"
		if p := zone(a); p.FinalUnreachable {
			kind = "silent"
		} else if p.HasName {
			kind = "noerror"
		}
		if queries[kind] == nil {
			wire, err := dnswire.NewPTRQuery(1, a.ReverseName()).Encode(nil)
			if err != nil {
				t.Fatal(err)
			}
			queries[kind] = wire
		}
	}
	want := map[string]float64{"noerror": 2, "nxdomain": 1, "silent": 1}
	peer := netip.MustParseAddrPort("192.0.2.53:5353")
	for _, traced := range []bool{false, true} {
		reg := obs.NewRegistry()
		reg.SetClock(simtime.Wall)
		reg.SetWindow(obs.NewWindow(60))
		var tr *trace.Tracer
		if traced {
			tr = trace.New(1404, 1)
			tr.SetMax(512)
		}
		var now simtime.Time
		s := &Server{
			cfg: Config{Authority: "final", Handler: FinalHandler(zone), Obs: reg, Tracer: tr,
				Clock: func() simtime.Time { now++; return now }},
			auth: dnslog.MustAuthority("final"),
			m:    newServerMetrics(reg, "final"),
		}
		sc, out := new(scratch), make([]byte, 0, 512)
		for i := 0; i < 600; i++ { // past the ring's bound
			s.exchange(queries["noerror"], peer, false, sc, out[:0])
		}
		for kind, wire := range queries {
			bound := want[kind]
			if traced {
				bound++ // a trace context the ring has not handed back (-race drops pooled ones)
			}
			got := testing.AllocsPerRun(500, func() { s.exchange(wire, peer, false, sc, out[:0]) })
			if got > bound {
				t.Errorf("traced=%v %s: %.0f allocations a query, want at most %.0f", traced, kind, got, bound)
			}
		}
	}
}

// TestServeAllocs holds a datagram's trip through a running serve loop —
// read, exchange, batch, reply, and the sink's batch every 256 records —
// to the one allocation of an NXDOMAIN exchange, measured over loopback
// from a client whose reads and writes allocate nothing.
func TestServeAllocs(t *testing.T) {
	served := 0
	s, err := Listen("127.0.0.1:0", Config{Authority: "final", Handler: FinalHandler(testProfile),
		Sink: func(rs []dnslog.Record) { served += len(rs) }})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	wire, err := dnswire.NewPTRQuery(1, ipaddr.FromOctets(198, 51, 100, 2).ReverseName()).Encode(nil) // no name in testProfile
	if err != nil {
		t.Fatal(err)
	}
	c, err := net.DialUDP("udp", nil, s.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if err := c.SetReadDeadline(time.Now().Add(time.Minute)); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 512)
	query := func() {
		if _, err := c.Write(wire); err != nil {
			t.Fatal(err)
		}
		if _, err := c.Read(buf); err != nil {
			t.Fatal(err)
		}
	}
	if n := testing.AllocsPerRun(1000, query); n > 1 {
		t.Errorf("a served NXDOMAIN query makes %.0f allocations, want 1", n)
	}
	s.Flush()
	if served == 0 {
		t.Error("the sink saw no record")
	}
}
