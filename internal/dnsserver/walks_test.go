package dnsserver

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"
	"time"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

// walkProfile gives each originator of the differential test one posture
// by its last octet: named with a 10 min, 1 h or uncached PTR; NXDOMAIN
// with a 10 min or 1 h negative TTL; and, for 100.1.7.5, a dead final
// authority (named for a day elsewhere).
func walkProfile(a ipaddr.Addr) dnssim.OriginatorProfile {
	o0, o1, _, o3 := a.Octets()
	named := dnssim.OriginatorProfile{HasName: true, Name: "host-" + a.String() + ".example.net"}
	switch o3 {
	case 0, 2, 4:
		named.TTL = [...]simtime.Duration{10 * simtime.Minute, simtime.Hour, 0}[o3/2]
		return named
	case 1:
		return dnssim.OriginatorProfile{NegTTL: 10 * simtime.Minute}
	case 3:
		return dnssim.OriginatorProfile{NegTTL: simtime.Hour}
	}
	if o0 == 100 && o1 == 1 {
		return dnssim.OriginatorProfile{FinalUnreachable: true}
	}
	named.TTL = simtime.Day
	return named
}

// walkLookup is one lookup of the differential sequence.
type walkLookup struct {
	orig ipaddr.Addr
	at   simtime.Time
}

// walkSequence returns nine rounds over 24 originators (six in each of
// 100.1, 100.2, 101.1 and 101.2), one lookup a second in a per-round
// shuffle. The rounds start 0, 2 min, 7 min, 13 min, 40 min, 90 min, 7 h,
// 3 d and 3 d 3 min in, so repeats fall inside and past every TTL the
// walks cache for.
func walkSequence() []walkLookup {
	var origs []ipaddr.Addr
	for _, o := range [][2]byte{{100, 1}, {100, 2}, {101, 1}, {101, 2}} {
		for i := byte(0); i < 6; i++ {
			origs = append(origs, ipaddr.FromOctets(o[0], o[1], 7, i))
		}
	}
	st := rng.New(5)
	var seq []walkLookup
	for _, start := range []simtime.Duration{0, 2 * simtime.Minute, 7 * simtime.Minute, 13 * simtime.Minute,
		40 * simtime.Minute, 90 * simtime.Minute, 7 * simtime.Hour, 3 * simtime.Day, 3*simtime.Day + 3*simtime.Minute} {
		for k := len(origs) - 1; k > 0; k-- {
			j := st.Intn(k + 1)
			origs[k], origs[j] = origs[j], origs[k]
		}
		for k, o := range origs {
			seq = append(seq, walkLookup{o, simtime.Time(1000).Add(start + simtime.Duration(k))})
		}
	}
	return seq
}

// straddles reports whether seq repeats some key (an originator, /16 or
// /8) both inside and past ttl.
func straddles(seq []walkLookup, key func(ipaddr.Addr) uint32, ttl simtime.Duration) bool {
	last := map[uint32]simtime.Time{}
	inside, past := false, false
	for _, l := range seq {
		if t, ok := last[key(l.orig)]; ok {
			inside = inside || l.at.Sub(t) < ttl
			past = past || l.at.Sub(t) > ttl
		}
		last[key(l.orig)] = l.at
	}
	return inside && past
}

// walkResult is what one lookup left: each sensor's records, as "level
// originator rcode" in level order, and its outcome.
type walkResult struct {
	tuples  []string
	outcome string // "cached", "name TARGET", "nxdomain" or "giveup"
}

func (a walkResult) equal(b walkResult) bool {
	return a.outcome == b.outcome && slices.Equal(a.tuples, b.tuples)
}

func tuple(level string, r dnslog.Record) string {
	return fmt.Sprintf("%s %s %d", level, r.Originator, r.RCode)
}

// simWalks runs seq through one simulated resolver; traits switches on
// what only the simulator models.
func simWalks(seq []walkLookup, traits func(*dnssim.Resolver)) []walkResult {
	g := geo.NewRegistry(1)
	h := dnssim.NewHierarchy(g, dnssim.DefaultConfig(), walkProfile)
	sensors := [3]*dnssim.Sensor{}
	for i, lv := range dnssim.Levels {
		sensors[i] = dnssim.NewSensor(lv, 1)
	}
	h.AttachRoots(sensors[0], nil)
	for _, l := range seq {
		h.AttachNational(g.Country(l.orig), sensors[1])
		h.AttachFinal(l.orig.Slash16(), sensors[2])
	}
	r := dnssim.NewResolver(ipaddr.MustParse("10.0.0.53"), 0, 0, 8192, rng.New(9))
	traits(r)
	out := make([]walkResult, len(seq))
	for i, l := range seq {
		var seen [3]int
		for li, s := range sensors {
			seen[li] = s.Len()
		}
		// Fault-free, the outcome is what the final recorded: nothing,
		// after queries were sent, is a give-up.
		res := &out[i]
		res.outcome = "cached"
		if h.Resolve(r, l.orig, l.at) > 0 {
			res.outcome = "giveup"
		}
		for li, s := range sensors {
			s.Range(seen[li], func(rec dnslog.Record) {
				res.tuples = append(res.tuples, tuple(dnssim.Levels[li], rec))
				if li == 2 {
					res.outcome = "nxdomain"
					if rec.RCode == 0 {
						res.outcome = "name " + walkProfile(rec.Originator).Name
					}
				}
			})
		}
	}
	return out
}

// TestSimAndLiveWalksAgree holds the two resolver walks together: one
// hierarchy and one lookup sequence go through dnssim.Hierarchy and
// through three loopback servers behind a Recursor, and each lookup must
// leave the same sensor tuples and the same outcome on both sides. The
// intended differences (DESIGN.md, "Sim and live walks") are asserted, not
// skipped: the live dead final logs every query it leaves unanswered, and
// each trait only the simulator models moves the simulated walk off the
// live one.
func TestSimAndLiveWalksAgree(t *testing.T) {
	seq := walkSequence()
	cfg := dnssim.DefaultConfig()
	byAddr := func(a ipaddr.Addr) uint32 { return uint32(a) }
	by16 := func(a ipaddr.Addr) uint32 { return uint32(a.Slash16()) }
	by8 := func(a ipaddr.Addr) uint32 { return uint32(a.Slash8()) }
	for _, c := range []struct {
		key func(ipaddr.Addr) uint32
		ttl simtime.Duration
	}{{byAddr, 10 * simtime.Minute}, {byAddr, simtime.Hour}, {byAddr, simtime.Day}, {byAddr, cfg.ServFailTTL},
		{by16, cfg.FinalNSTTL}, {by8, cfg.NationalNSTTL}} {
		if !straddles(seq, c.key, c.ttl) {
			t.Fatalf("the sequence repeats nothing both inside and past %d s", c.ttl)
		}
	}

	var clock atomic.Int64
	h := startHierarchyWith(t, func(level string, c *Config) {
		c.Clock = func() simtime.Time { return simtime.Time(clock.Load()) }
		if level == "final" {
			c.Handler = FinalHandler(walkProfile)
		}
	})
	reg := obs.NewRegistry()
	rec := NewRecursor(reg, nil, h.root.Addr().String())
	rec.Client.Timeout = 50 * time.Millisecond // a dead final costs one timeout
	rec.Client.Retries = 0
	finalQueries := reg.Counter("dnssim_queries_total", obs.L("level", "final"))

	seen := map[string]int{}
	records := func(level string) []dnslog.Record {
		h.count(level) // flushes every server
		h.mu.Lock()
		defer h.mu.Unlock()
		rs := slices.Clone(h.records[level][seen[level]:])
		seen[level] = len(h.records[level])
		return rs
	}
	live := make([]walkResult, len(seq))
	for i, l := range seq {
		clock.Store(int64(l.at))
		asked := finalQueries.Value()
		target, tr, err := rec.ResolvePTR(l.orig, l.at)
		res := &live[i]
		switch {
		case err != nil:
			res.outcome = "giveup"
		case tr.Queries == 0:
			res.outcome = "cached"
		case target == "":
			res.outcome = "nxdomain"
		default:
			res.outcome = "name " + target
		}
		for _, lv := range dnssim.Levels {
			rs := records(lv)
			if lv == "final" && err != nil {
				// Intended: the dead final logs each query it leaves
				// unanswered (the simulated one logs none). A silent
				// query's record may trail the client's timeout.
				sent := int(finalQueries.Value() - asked)
				for wait := 0; len(rs) < sent && wait < 100; wait++ {
					time.Sleep(10 * time.Millisecond)
					rs = append(rs, records(lv)...)
				}
				if len(rs) != sent || sent == 0 {
					t.Errorf("lookup %d (%s at %d): the dead final logged %d of %d queries", i, l.orig, l.at, len(rs), sent)
				}
				continue
			}
			for _, r := range rs {
				res.tuples = append(res.tuples, tuple(lv, r))
			}
		}
	}

	sim := simWalks(seq, func(*dnssim.Resolver) {})
	for i, l := range seq {
		if !live[i].equal(sim[i]) {
			t.Errorf("lookup %d (%s at %d): sim %s %q, live %s %q", i, l.orig, l.at,
				sim[i].outcome, sim[i].tuples, live[i].outcome, live[i].tuples)
		}
	}

	// Each trait only the simulator models changes what its sensors see.
	for name, trait := range map[string]func(*dnssim.Resolver){
		"Busyness":       func(r *dnssim.Resolver) { r.Busyness = 1 },
		"PreferM":        func(r *dnssim.Resolver) { r.PreferM = 1 },
		"MaxPTRTTL":      func(r *dnssim.Resolver) { r.MaxPTRTTL = simtime.Minute },
		"RetransmitProb": func(r *dnssim.Resolver) { r.RetransmitProb = 1 },
		"QNameMin":       func(r *dnssim.Resolver) { r.QNameMin = true },
	} {
		if slices.EqualFunc(simWalks(seq, trait), live, walkResult.equal) {
			t.Errorf("the live walk matches the simulated one with %s on", name)
		}
	}
}
