package stream

import (
	"testing"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
)

// TestObserveAllocs holds a shard's per-record path to no allocation in
// steady state: 64 queriers of one originator in turn, one a second, so
// every record misses the 30 s window and runs through dedup, the sample
// and the heavy-hitter run; and the same record
// twice a second, so every other one is suppressed. Each measurement
// crosses a fold of the run into both heavy-hitter views. AllocsPerRun
// reports whole allocations per run averaged over its runs, so the
// occasional growth of a map cannot fail a correct path, and a fmt.Sprint
// can.
func TestObserveAllocs(t *testing.T) {
	e := New(testConfig(1))
	o := ipaddr.MustParse("10.6.6.6")
	sh := shardOf(e, o)
	r := dnslog.Record{Originator: o}
	next := func() {
		r.Time++
		r.Querier = ipaddr.FromOctets(172, 16, 0, byte(r.Time%64))
		sh.observe(r, &e.cfg)
	}
	for range hhhRun + 1000 {
		next()
	}
	folded := sh.hhhQry.Total()
	if n := testing.AllocsPerRun(hhhRun, next); n != 0 {
		t.Errorf("shard.observe allocates %v times a kept record, want 0", n)
	}
	if n := testing.AllocsPerRun(hhhRun, func() { next(); sh.observe(r, &e.cfg) }); n != 0 {
		t.Errorf("shard.observe allocates %v times a kept and a suppressed record, want 0", n)
	}
	if got, want := sh.hhhQry.Total(), folded+2*hhhRun; got != want {
		t.Errorf("heavy hitters hold %d records after two measured runs, want %d: a measurement crossed no fold", got, want)
	}
}

// TestDedupSeenAllocs holds the dedup probe to no allocation at its bound:
// a new pair a second and a repeat of it, so the table sweeps in place
// every quarter-table of new pairs and resizes never.
func TestDedupSeenAllocs(t *testing.T) {
	d := newDedupTable()
	d.max = 1024
	var t0 simtime.Time
	next := func() {
		t0++
		d.seen(uint64(t0), t0, 30*simtime.Second)
		d.seen(uint64(t0), t0+1, 30*simtime.Second)
	}
	for range 4 * dedupLateness {
		next()
	}
	if len(d.slots) != d.max {
		t.Fatalf("table of %d slots, want it at its bound %d", len(d.slots), d.max)
	}
	if n := testing.AllocsPerRun(10000, next); n != 0 {
		t.Errorf("dedupTable.seen allocates %v times a new pair and its repeat, want 0", n)
	}
}
