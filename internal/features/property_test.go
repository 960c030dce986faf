package features

import (
	"math"
	"testing"
	"testing/quick"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

// randomRecords builds a random but well-formed interval log.
func randomRecords(seed uint64, nOrig, maxQueriers int) []dnslog.Record {
	st := rng.New(seed)
	var recs []dnslog.Record
	for o := 0; o < nOrig; o++ {
		orig := ipaddr.Addr(st.Uint64())
		nq := 1 + st.Intn(maxQueriers)
		for q := 0; q < nq; q++ {
			qa := ipaddr.Addr(st.Uint64())
			n := 1 + st.Intn(3)
			t := simtime.Time(st.Intn(86400))
			for k := 0; k < n; k++ {
				recs = append(recs, dnslog.Record{Time: t, Originator: orig, Querier: qa})
				t = t.Add(simtime.Duration(st.Intn(7200)))
			}
		}
	}
	return recs
}

// fuzzCategories names half the queriers, leaves the rest nameless, marks
// a few unreach.
func fuzzCategories(a ipaddr.Addr) qname.Category {
	switch a % 5 {
	case 0:
		return qname.NXDomain
	case 1:
		return qname.Unreach
	case 2:
		return qname.Mail
	case 3:
		return qname.Classify("weird..name..") // malformed names must not break anything
	default:
		return qname.Home
	}
}

// TestVectorInvariants checks every extracted vector satisfies the §III-C
// contract on arbitrary inputs: static fractions form a distribution,
// every feature is finite, bounded features stay in [0, 1].
func TestVectorInvariants(t *testing.T) {
	g := geo.NewRegistry(1)
	if err := quick.Check(func(seed uint64) bool {
		recs := randomRecords(seed, 5, 60)
		x := NewExtractor(g, fuzzCategories)
		x.MinQueriers = 1
		for _, v := range x.Extract(recs, 0, simtime.Day) {
			sum := 0.0
			for i := 0; i < NumStatic; i++ {
				if v.X[i] < 0 || v.X[i] > 1 {
					return false
				}
				sum += v.X[i]
			}
			if math.Abs(sum-1) > 1e-9 {
				return false
			}
			for i := 0; i < NumFeatures; i++ {
				if math.IsNaN(v.X[i]) || math.IsInf(v.X[i], 0) || v.X[i] < 0 {
					return false
				}
			}
			for _, di := range []int{DynPersistence, DynLocalEntropy, DynGlobalEntropy,
				DynUniqueASes, DynUniqueCountries} {
				if d := v.Dynamic(di); d > 1+1e-9 {
					return false
				}
			}
			if v.Dynamic(DynQueriesPerQuerier) < 1 {
				return false // at least one query per counted querier
			}
			if v.Queriers <= 0 || v.Queries < v.Queriers {
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// TestExtractIsOrderInsensitive: shuffling record order (while preserving
// per-pair time order via distinct pairs) must not change any vector.
func TestExtractIsOrderInsensitive(t *testing.T) {
	g := geo.NewRegistry(1)
	orig := ipaddr.MustParse("1.2.3.4")
	var recs []dnslog.Record
	for q := 0; q < 40; q++ {
		recs = append(recs, dnslog.Record{
			Time:       simtime.Time(q * 100),
			Originator: orig,
			Querier:    ipaddr.FromOctets(10, 1, byte(q), 1),
		})
	}
	x := NewExtractor(g, fuzzCategories)
	x.MinQueriers = 1
	before := x.Extract(recs, 0, simtime.Day)

	st := rng.New(9)
	st.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	after := x.Extract(recs, 0, simtime.Day)

	if len(before) != 1 || len(after) != 1 || before[0].X != after[0].X {
		t.Error("vector depends on record order for distinct pairs")
	}
}

// TestEntropyMonotonicity: spreading queriers over more /8s must not lower
// global entropy.
func TestEntropyMonotonicity(t *testing.T) {
	g := geo.NewRegistry(1)
	x := NewExtractor(g, fuzzCategories)
	x.MinQueriers = 1
	build := func(slash8s int) float64 {
		var recs []dnslog.Record
		for q := 0; q < 64; q++ {
			recs = append(recs, dnslog.Record{
				Time:       simtime.Time(q * 40),
				Originator: ipaddr.MustParse("1.2.3.4"),
				Querier:    ipaddr.FromOctets(byte(q%slash8s), 9, byte(q), 7),
			})
		}
		vs := x.Extract(recs, 0, simtime.Day)
		return vs[0].Dynamic(DynGlobalEntropy)
	}
	prev := -1.0
	for _, n := range []int{1, 2, 4, 16, 64} {
		e := build(n)
		if e < prev-1e-9 {
			t.Fatalf("entropy decreased when spreading to %d /8s: %v < %v", n, e, prev)
		}
		prev = e
	}
}
