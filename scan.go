package backscatter

import (
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/world"
)

// ScanTrial is the outcome of one controlled scan (§IV-D / Figure 4).
type ScanTrial = world.ScanResult

// ControlledScan reproduces the paper's controlled attenuation experiment:
// probe frac of the IPv4 space from a prober whose reverse zone is
// instrumented at TTL 0, and report how many unique queriers appear at the
// prober's final authority and at the roots. react is the per-target
// probability of triggering a reverse lookup. Each call runs in a fresh,
// otherwise quiet world derived from seed.
func ControlledScan(seed uint64, frac, react float64) ScanTrial {
	cfg := world.DefaultConfig()
	cfg.Seed = seed
	cfg.ClassPopulation = [NumClasses]int{} // quiet background
	// The sensor window must cover the scan: big scans run for days
	// (13 h per 0.1% of the space, as in the paper's trials).
	cfg.Start = simtime.Date(2015, 1, 10, 0, 0)
	cfg.Duration = simtime.Days(60)
	w := world.New(cfg)
	origin := ipaddr.MustParse("198.51.100.77")
	res, err := w.ControlledScan(origin, frac, react, cfg.Start)
	if err != nil {
		panic(err) // w has not run
	}
	return res
}

// QuerierName returns the reverse name of a querier seen in this
// dataset's logs, and whether its reverse zone authority is unreachable —
// the lookup the sensor performs when computing static features.
func (d *Dataset) QuerierName(a Addr) (string, bool) {
	return d.World.QuerierName(a)
}
