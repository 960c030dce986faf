package world

import (
	"errors"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

// ScanResult summarizes one controlled scan trial (§IV-D / Figure 4).
type ScanResult struct {
	Targets       uint64 // addresses probed
	Reacting      int    // targets that triggered a reverse lookup
	FinalQueries  uint64 // queries arriving at the prober's final authority
	FinalQueriers int    // unique queriers there
	RootQueries   uint64 // queries reaching either root for the prober
	RootQueriers  int    // unique queriers there
}

// ControlledScan reproduces the paper's controlled experiment: probe frac
// of the IPv4 space from origin, with the origin's PTR record published at
// TTL 0 so the final authority sees every triggered lookup. react is the
// per-target probability of triggering a reverse lookup (occupied +
// monitoring targets); the paper's random scans saw ~1 querier per 1000
// targets after querier sharing.
//
// The scan runs over a window proportional to its size (the paper's 0.1%
// scan took 13 hours), which matters for delegation-cache dynamics at the
// upper tree.
//
// The scan resolves outside Run on the world's resolvers, which Run drops
// when it returns: on a world that has run it returns an error.
func (w *World) ControlledScan(origin ipaddr.Addr, frac, react float64, at simtime.Time) (ScanResult, error) {
	if w.ran {
		return ScanResult{}, errors.New("world: ControlledScan on a world that has run: its resolvers are gone")
	}
	final := w.attachFinal(origin.Slash16())
	w.SetProfile(origin, dnssim.OriginatorProfile{
		HasName: true,
		Name:    "prober." + w.Geo.CCTLD(origin),
		TTL:     0, // disable caching, per the experiment design
	})

	targets := uint64(frac * (1 << 32))
	if targets == 0 {
		targets = 1
	}
	st := rng.New(mix64(w.Cfg.Seed, uint64(origin)^0x5ca9))
	// Only reacting targets generate any DNS work; non-reactors need not
	// be enumerated. The reacting count is a Poisson thinning of the scan.
	m := poissonDraw(st, float64(targets)*react)

	// Scan duration scales with size: ~13 h per 0.1% of the space, with a
	// floor of 10 minutes.
	dur := simtime.Duration(float64(13*simtime.Hour) * frac / 0.001)
	if dur < 10*simtime.Minute {
		dur = 10 * simtime.Minute
	}

	startFinalSeen := final.Seen()
	startB, startM := w.BRoot.Seen(), w.MRoot.Seen()
	finalQ := make(map[ipaddr.Addr]struct{})
	rootQ := make(map[ipaddr.Addr]struct{})
	finalBase := final.Len()
	bBase, mBase := w.BRoot.Len(), w.MRoot.Len()

	for i := 0; i < m; i++ {
		target := ipaddr.Addr(st.Uint64())
		t := at.Add(simtime.Duration(st.Int63() % int64(dur)))
		q := w.pool.forTarget(origin, &classMixes[activity.Scan], target)
		w.hier.Resolve(&q.Resolver, origin, t)
	}

	final.Range(finalBase, func(r dnslog.Record) {
		if r.Originator == origin {
			finalQ[r.Querier] = struct{}{}
		}
	})
	w.BRoot.Range(bBase, func(r dnslog.Record) {
		if r.Originator == origin {
			rootQ[r.Querier] = struct{}{}
		}
	})
	w.MRoot.Range(mBase, func(r dnslog.Record) {
		if r.Originator == origin {
			rootQ[r.Querier] = struct{}{}
		}
	})

	return ScanResult{
		Targets:       targets,
		Reacting:      m,
		FinalQueries:  final.Seen() - startFinalSeen,
		FinalQueriers: len(finalQ),
		RootQueries:   (w.BRoot.Seen() - startB) + (w.MRoot.Seen() - startM),
		RootQueriers:  len(rootQ),
	}, nil
}
