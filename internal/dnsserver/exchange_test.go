package dnsserver

import (
	"net/netip"
	"testing"

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
