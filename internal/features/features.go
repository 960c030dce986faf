// Package features turns per-originator backscatter into the feature
// vectors of §III-C.
//
// Static features are the fractions of an originator's queriers whose
// reverse names fall into each naming category (home, mail, ns, ...,
// nxdomain, unreach): fractions rather than counts, so the features are
// independent of query rate. Dynamic features capture temporal and spatial
// structure: queries per querier, persistence across 10-minute periods,
// Shannon entropy of querier /24 and /8 prefixes, and AS/country
// dispersion normalized by what the whole interval saw.
package features

import (
	"cmp"
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"sync"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/parallel"
	"dnsbackscatter/internal/prof"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
)

// NumStatic is the count of static (name-category) features.
const NumStatic = int(qname.NumCategories)

// Dynamic feature indices within the dynamic block.
const (
	DynQueriesPerQuerier = iota
	DynPersistence
	DynLocalEntropy
	DynGlobalEntropy
	DynUniqueASes
	DynUniqueCountries
	DynQueriersPerCountry
	DynQueriersPerAS
	NumDynamic
)

// NumFeatures is the full vector width.
const NumFeatures = NumStatic + NumDynamic

var dynamicNames = [NumDynamic]string{
	"queries-per-querier", "persistence", "local-entropy", "global-entropy",
	"unique-ases", "unique-countries", "queriers-per-country", "queriers-per-as",
}

// Names returns the feature names in vector order. Static features carry
// their category name; dynamic features their §III-C label.
func Names() []string {
	out := make([]string, 0, NumFeatures)
	for c := qname.Category(0); c < qname.NumCategories; c++ {
		out = append(out, c.String())
	}
	out = append(out, dynamicNames[:]...)
	return out
}

// Vector is one originator's features over one observation interval.
type Vector struct {
	Originator ipaddr.Addr
	Queriers   int // unique queriers (the footprint estimate)
	Queries    int // deduplicated query count
	X          [NumFeatures]float64
}

// Static returns the fraction for a name category.
func (v *Vector) Static(c qname.Category) float64 { return v.X[int(c)] }

// Dynamic returns a dynamic feature by its Dyn index.
func (v *Vector) Dynamic(i int) float64 { return v.X[NumStatic+i] }

// String formats the vector compactly for reports.
func (v *Vector) String() string {
	return fmt.Sprintf("%s queriers=%d queries=%d mail=%.2f home=%.2f ns=%.2f gent=%.2f",
		v.Originator, v.Queriers, v.Queries,
		v.Static(qname.Mail), v.Static(qname.Home), v.Static(qname.NS),
		v.Dynamic(DynGlobalEntropy))
}

// CategoryFunc returns the category of a querier's reverse name, as
// qname.ClassifyQuerier makes it.
type CategoryFunc func(ipaddr.Addr) qname.Category

// Extractor computes feature vectors from interval logs.
type Extractor struct {
	Geo        *geo.Registry
	CategoryOf CategoryFunc
	// MinQueriers is the analyzability threshold (§III-B; the paper uses
	// 20 unique queriers). Originators below it are dropped.
	MinQueriers int
	// DedupWindow suppresses repeat queries per (originator, querier)
	// pair before rate features; the paper uses 30 s.
	DedupWindow simtime.Duration
	// Obs, when non-nil, times the dedup/filter/extract stages of the
	// Figure 2 pipeline and counts records and originators through them
	// (pipeline_records_total, pipeline_records_kept_total,
	// pipeline_originators_total, pipeline_analyzable_total).
	Obs *obs.Registry
	// Acct, when non-nil, accumulates per-stage resource accounting
	// (alloc deltas, GC cycles, goroutine and worker peaks) for
	// dedup/filter/extract on the ops channel — scheduling-dependent
	// readings that never enter the deterministic obs snapshot. Nil
	// costs nothing.
	Acct *prof.Accountant
	// Workers bounds the goroutines Extract fans originators across;
	// <= 0 uses runtime.GOMAXPROCS(0) and 1 runs sequentially. Output
	// is byte-identical for every worker count (the determinism
	// contract of ARCHITECTURE.md); with Workers != 1, Geo and CategoryOf
	// must be safe for concurrent read-only use.
	Workers int
	// Tracer, when non-nil, joins records back to their lookup traces
	// (via the tracer's sensor-record index) and annotates each trace
	// with the pipeline's per-stage decisions: dedup kept/dropped,
	// filter kept/dropped at the analyzability threshold, extract
	// vector emission. Safe with any Workers value — pipeline events
	// are committed under the tracer lock and rendered as a sorted
	// multiset, so output bytes never depend on worker interleaving.
	Tracer *trace.Tracer

	// scratch is the cross-call columnar state: reuse is an ops-only
	// optimization, so a warm Extractor and a fresh one return identical
	// bytes for the same interval. An Extractor must not run Extract
	// concurrently with itself (distinct Extractors are fine); the
	// per-shard entries are touched by at most one worker per call
	// because shards fan out by index.
	scratch struct {
		idx    []int32
		shards [Shards]*shardScratch
		work   []*originatorAgg
		uq     []ipaddr.Addr
		uas    []int
	}
}

// NewExtractor returns an extractor with the paper's defaults that reads
// queriers' categories from of: a category function, or a function that
// returns a querier's reverse name and whether its zone is unreachable,
// whose names are then classified on every lookup.
func NewExtractor[F func(ipaddr.Addr) qname.Category | func(ipaddr.Addr) (string, bool)](g *geo.Registry, of F) *Extractor {
	x := &Extractor{Geo: g, MinQueriers: 20, DedupWindow: 30 * simtime.Second}
	switch f := any(of).(type) {
	case func(ipaddr.Addr) qname.Category:
		x.CategoryOf = f
	case func(ipaddr.Addr) (string, bool):
		x.CategoryOf = func(a ipaddr.Addr) qname.Category { return qname.ClassifyQuerier(f(a)) }
	}
	return x
}

// originatorAgg accumulates one originator's interval state. Queriers
// and buckets collect raw (possibly repeated) observations columnar-style
// during dedup; the filter stage sorts and compacts them in place, after
// which queriers holds the sorted unique set and nq/nbuckets the unique
// counts. The slices live in shard scratch and keep their capacity across
// Extract calls.
type originatorAgg struct {
	orig     ipaddr.Addr
	queries  int
	nq       int // unique queriers (valid after filter)
	nbuckets int // unique 10-minute buckets (valid after filter)
	kept     bool
	queriers []ipaddr.Addr
	buckets  []int
	// refs are the traces whose records fed this aggregate (only
	// populated when the extractor has a Tracer).
	refs map[trace.ID]simtime.Time
}

// Shards is the fixed originator-shard count of the dedup and filter
// stages here and of the streaming engine. It is constant — not derived
// from Workers — so the shard metrics and every intermediate result are
// identical whatever the worker count; workers merely drain the shards
// faster.
const Shards = 16

// ShardOf deterministically assigns an originator to a shard. The 30 s
// dedup window is per (originator, querier), so splitting the record
// stream by originator preserves every keep/drop decision.
func ShardOf(a ipaddr.Addr) int {
	z := uint64(a) * 0x9e3779b97f4a7c15
	z ^= z >> 29
	return int(z % Shards)
}

// Partition splits recs by originator shard, writing each record's index
// into *buf, which it grows as needed and otherwise reuses, and returns
// each shard's indices (slices of *buf, valid until the next call with the
// same buf). Count, prefix-sum, fill: stable, so each shard lists its
// records in stream order. Indices are int32, so len(recs) must not exceed
// math.MaxInt32.
func Partition(recs []dnslog.Record, buf *[]int32) (parts [Shards][]int32) {
	var counts [Shards]int
	for i := range recs {
		counts[ShardOf(recs[i].Originator)]++
	}
	if cap(*buf) < len(recs) {
		*buf = make([]int32, len(recs))
	}
	off := 0
	for s, n := range counts {
		parts[s] = (*buf)[off : off : off+n]
		off += n
	}
	for i := range recs {
		s := ShardOf(recs[i].Originator)
		parts[s] = append(parts[s], int32(i))
	}
	return parts
}

// shardScratch is one shard's dedup/filter state: an index from
// originator to its slot in a flat aggregate column, the shard's deduper,
// and the shard-level unique querier/AS/country views (sorted slices and
// a set — only their sizes feed the interval normalizers). Everything is
// reused across Extract calls.
type shardScratch struct {
	kept  int
	idx   map[ipaddr.Addr]int32
	aggs  []originatorAgg
	dedup *dnslog.Deduper
	addrs []ipaddr.Addr // shard-unique queriers (sorted)
	asns  []int         // shard-unique ASNs (sorted)
	ccs   countrySet    // shard-unique countries
}

// reset readies the scratch for a new interval, keeping every map bucket
// and slice capacity the previous interval grew.
func (sh *shardScratch) reset(w simtime.Duration) {
	sh.kept = 0
	clear(sh.idx)
	sh.aggs = sh.aggs[:0]
	sh.dedup.Window = w
	sh.dedup.Reset()
	sh.addrs = sh.addrs[:0]
	sh.asns = sh.asns[:0]
	sh.ccs = 0
}

// agg returns the aggregate slot for orig, creating (or recycling) one on
// first sight. Returned pointers are valid until the next agg call.
func (sh *shardScratch) agg(orig ipaddr.Addr) *originatorAgg {
	if i, ok := sh.idx[orig]; ok {
		return &sh.aggs[i]
	}
	if len(sh.aggs) < cap(sh.aggs) {
		sh.aggs = sh.aggs[:len(sh.aggs)+1] // recycle a slot, keeping its slice capacities
	} else {
		sh.aggs = append(sh.aggs, originatorAgg{})
	}
	a := &sh.aggs[len(sh.aggs)-1]
	a.orig = orig
	a.queries, a.nq, a.nbuckets = 0, 0, 0
	a.kept = false
	a.queriers = a.queriers[:0]
	a.buckets = a.buckets[:0]
	a.refs = nil
	sh.idx[orig] = int32(len(sh.aggs) - 1)
	return a
}

// shardFor hands out shard s's scratch, made on first use and reset for
// the new interval.
func (x *Extractor) shardFor(s int) *shardScratch {
	sh := x.scratch.shards[s]
	if sh == nil {
		sh = &shardScratch{
			idx:   make(map[ipaddr.Addr]int32),
			dedup: dnslog.NewDeduper(x.DedupWindow),
		}
		x.scratch.shards[s] = sh
	}
	sh.reset(x.DedupWindow)
	return sh
}

// sortUniq sorts s and compacts adjacent duplicates in place, returning
// the unique prefix. The deterministic total order doubles as the
// iteration order downstream consumers see.
func sortUniq[T cmp.Ordered](s []T) []T {
	slices.Sort(s)
	return slices.Compact(s)
}

// countrySet is a set of countries, one bit per geo.Countries index.
type countrySet uint64

func init() {
	if len(geo.Countries) > 64 {
		panic("features: countrySet holds 64 countries, geo.Countries has more")
	}
}

func (c *countrySet) add(g *geo.Registry, a ipaddr.Addr) { *c |= 1 << uint(g.CountryIndex(a)) }

func (c countrySet) len() int { return bits.OnesCount64(uint64(c)) }

// Extract computes vectors for every analyzable originator in recs, which
// must be time-ordered per (originator, querier) pair (sensor output is).
// The interval spans [start, start+dur) for persistence normalization.
//
// The three local stages of the Figure 2 pipeline run in order — dedup
// (30 s window), filter (analyzability threshold), extract (vector
// computation) — each under an Obs span when instrumented; classification
// is the fourth stage, owned by package classify. Dedup and filter shard
// by originator and extract fans out per originator, all across Workers
// goroutines with index-ordered merges, so the returned vectors are
// byte-identical for every worker count.
func (x *Extractor) Extract(recs []dnslog.Record, start simtime.Time, dur simtime.Duration) []*Vector {
	pool := parallel.Pool{Workers: x.Workers, Obs: x.Obs, Acct: x.Acct}

	// Dedup stage: partition the stream's indices by originator (each
	// shard stays time-ordered per pair), then dedup and aggregate each
	// shard independently into its reusable columnar scratch.
	sp := x.Obs.StartSpan("dedup")
	tok := x.Acct.Start("dedup")
	parts := Partition(recs, &x.scratch.idx)
	var shards [Shards]*shardScratch
	for s := range shards {
		shards[s] = x.shardFor(s)
	}
	pool.Stage = "dedup"
	pool.Each(Shards, func(s int) {
		sh := shards[s]
		for _, i := range parts[s] {
			r := recs[i]
			var id trace.ID
			var t0 simtime.Time
			traced := false
			if x.Tracer != nil {
				id, t0, traced = x.Tracer.RecordID(r.Originator, r.Querier, r.Time)
			}
			if !sh.dedup.Keep(r) {
				if traced {
					x.Tracer.Pipeline(id, t0, "dedup", "dropped", "window", r.Time)
				}
				continue
			}
			if traced {
				x.Tracer.Pipeline(id, t0, "dedup", "kept", "", r.Time)
			}
			sh.kept++
			a := sh.agg(r.Originator)
			if traced {
				if a.refs == nil {
					a.refs = make(map[trace.ID]simtime.Time)
				}
				a.refs[id] = t0
			}
			a.queries++
			a.queriers = append(a.queriers, r.Querier)
			if b := r.Time.TenMinuteBucket(); len(a.buckets) == 0 || a.buckets[len(a.buckets)-1] != b {
				a.buckets = append(a.buckets, b)
			}
		}
	})
	kept, originators := 0, 0
	for _, sh := range shards {
		kept += sh.kept
		originators += len(sh.aggs)
	}
	tok.End()
	sp.End()
	x.Obs.Counter("pipeline_records_total").Add(uint64(len(recs)))
	x.Obs.Counter("pipeline_records_kept_total").Add(uint64(kept))
	x.Obs.Counter("pipeline_originators_total").Add(uint64(originators))

	// Filter stage: interval-level normalizers (every AS and country
	// observed across all queriers this interval), then the §III-B
	// analyzability threshold. Each shard dedups its own querier view;
	// the union across shards is order-independent.
	sp = x.Obs.StartSpan("filter")
	tok = x.Acct.Start("filter")
	pool.Stage = "filter"
	pool.Each(Shards, func(s int) {
		sh := shards[s]
		// Sort-compact each aggregate's raw querier/bucket columns into
		// their unique sets, then build the shard-level views from every
		// originator (dropped ones included — the paper's interval
		// normalizers count all observed queriers).
		for i := range sh.aggs {
			a := &sh.aggs[i]
			a.queriers = sortUniq(a.queriers)
			a.nq = len(a.queriers)
			a.buckets = sortUniq(a.buckets)
			a.nbuckets = len(a.buckets)
		}
		for i := range sh.aggs {
			sh.addrs = append(sh.addrs, sh.aggs[i].queriers...)
		}
		sh.addrs = sortUniq(sh.addrs)
		for _, q := range sh.addrs {
			sh.asns = append(sh.asns, x.Geo.ASN(q))
			sh.ccs.add(x.Geo, q)
		}
		sh.asns = sortUniq(sh.asns)
		for i := range sh.aggs {
			a := &sh.aggs[i]
			if a.nq < x.MinQueriers {
				x.emitRefs(a, "filter", "dropped", a.nq, start)
			} else {
				a.kept = true
				x.emitRefs(a, "filter", "kept", a.nq, start)
			}
		}
	})
	// Union across shards: concatenate the per-shard sorted unique views
	// and compact once — only the lengths feed the normalizers.
	uq, uas := x.scratch.uq[:0], x.scratch.uas[:0]
	var ucc countrySet
	analyzable := 0
	for _, sh := range shards {
		uq = append(uq, sh.addrs...)
		uas = append(uas, sh.asns...)
		ucc |= sh.ccs
		for i := range sh.aggs {
			if sh.aggs[i].kept {
				analyzable++
			}
		}
	}
	uq, uas = sortUniq(uq), sortUniq(uas)
	x.scratch.uq, x.scratch.uas = uq, uas
	totalBuckets := int(dur / (10 * simtime.Minute))
	if totalBuckets < 1 {
		totalBuckets = 1
	}
	tok.End()
	sp.End()
	x.Obs.Counter("pipeline_analyzable_total").Add(uint64(analyzable))

	// Extract stage: one work item per analyzable originator, gathered
	// in sorted address order so the fan-out input — and therefore the
	// index-ordered merge — is deterministic.
	sp = x.Obs.StartSpan("extract")
	tok = x.Acct.Start("extract")
	work := x.scratch.work[:0]
	for _, sh := range shards {
		for i := range sh.aggs {
			if sh.aggs[i].kept {
				work = append(work, &sh.aggs[i])
			}
		}
	}
	slices.SortFunc(work, func(a, b *originatorAgg) int {
		return cmp.Compare(a.orig, b.orig)
	})
	x.scratch.work = work
	pool.Stage = "extract"
	out := parallel.Map(pool, len(work), func(i int) *Vector {
		a := work[i]
		v := x.vector(a, len(uas), ucc.len(), len(uq), totalBuckets)
		x.emitRefs(a, "extract", "vector", v.Queriers, start)
		return v
	})
	SortVectors(out)
	tok.End()
	sp.End()
	return out
}

// emitRefs annotates every trace that fed one originator's aggregate
// with a pipeline stage decision. The querier count is formatted here,
// after the Tracer nil check, so untraced runs never pay for building
// the detail string. Iteration order over refs is irrelevant: the
// tracer renders pipeline events as a sorted multiset.
func (x *Extractor) emitRefs(a *originatorAgg, stage, outcome string, queriers int, at simtime.Time) {
	if x.Tracer == nil {
		return
	}
	detail := "queriers=" + strconv.Itoa(queriers)
	for id, t0 := range a.refs {
		x.Tracer.Pipeline(id, t0, stage, outcome, detail, at)
	}
}

// Sampled is one distinct querier as the vector computation reads it: the
// address in the high bits, the category of its reverse name in the low
// eight — so a set of them sorts by address as plain integers, and a
// category is looked up once however often its querier is scanned.
type Sampled uint64

// SampleOf pairs q with its category.
func SampleOf(categoryOf CategoryFunc, q ipaddr.Addr) Sampled {
	return SampleKey(q) | Sampled(categoryOf(q))
}

// SampleKey is q with no category: it sorts at or below q's Sampled and
// above every lower address's, so it finds q in a set in address order
// before q's category is looked up.
func SampleKey(q ipaddr.Addr) Sampled { return Sampled(q) << 8 }

// Addr returns the querier's address.
func (s Sampled) Addr() ipaddr.Addr { return ipaddr.Addr(s >> 8) }

// Category returns the querier's name category.
func (s Sampled) Category() qname.Category { return qname.Category(s & 0xff) }

// Summary is everything a feature vector takes from a set of distinct
// queriers and nothing of the interval around them: the queriers per name
// category, the normalized entropies of their /24 and /8 prefixes, and
// how many ASes and countries they span. The rest of a vector is O(1)
// arithmetic against interval normalizers.
type Summary struct {
	N                           int
	Static                      [NumStatic]int
	LocalEntropy, GlobalEntropy float64
	ASes, Countries             int
}

// vecScratch is per-worker scratch for one summary: the batch querier set
// in address order, /24 and /8 run-length counts, and an AS gather buffer.
// Pooled because the fan-outs have no per-worker identity; pooling is
// ops-only and invisible to output bytes.
type vecScratch struct {
	sample []Sampled
	cs24   []int
	cs8    []int
	asns   []int
}

var vecScratchPool = sync.Pool{New: func() any { return new(vecScratch) }}

// summarize reads sample, a set of distinct queriers in address order.
// That order groups equal /24 and /8 prefixes contiguously, so the entropy
// inputs are run lengths and need no per-originator count maps; it groups
// most of an AS too, so sortUniq is left with one entry per run.
func (s *vecScratch) summarize(g *geo.Registry, sample []Sampled) Summary {
	sm := Summary{N: len(sample)}
	cs24, cs8, asns := s.cs24[:0], s.cs8[:0], s.asns[:0]
	var ccs countrySet
	var prev24 uint32
	var prev8 byte
	for i, sq := range sample {
		q := sq.Addr()
		sm.Static[sq.Category()]++
		if p := q.Slash24(); i == 0 || p != prev24 {
			cs24 = append(cs24, 1)
			prev24 = p
		} else {
			cs24[len(cs24)-1]++
		}
		if p := q.Slash8(); i == 0 || p != prev8 {
			cs8 = append(cs8, 1)
			prev8 = p
		} else {
			cs8[len(cs8)-1]++
		}
		if asn := g.ASN(q); len(asns) == 0 || asns[len(asns)-1] != asn {
			asns = append(asns, asn)
		}
		ccs.add(g, q)
	}
	sm.LocalEntropy = normEntropy(cs24, sm.N, 1<<24)
	sm.GlobalEntropy = normEntropy(cs8, sm.N, 256)
	sm.ASes, sm.Countries = len(sortUniq(asns)), ccs.len()
	s.cs24, s.cs8, s.asns = cs24, cs8, asns
	return sm
}

// fill writes the summary's share of a vector: the static fractions and
// the two entropies.
func (sm *Summary) fill(v *Vector) {
	for i, n := range sm.Static {
		v.X[i] = float64(n) / float64(sm.N)
	}
	v.X[NumStatic+DynLocalEntropy] = sm.LocalEntropy
	v.X[NumStatic+DynGlobalEntropy] = sm.GlobalEntropy
}

// vector computes one originator's feature vector. a.queriers must be the
// sorted unique querier set (filter stage output). Every accumulation is
// either integer or order-normalized (normEntropy sorts its counts), so
// the result does not depend on any iteration order.
func (x *Extractor) vector(a *originatorAgg, totalAS, totalCountry, totalQueriers, totalBuckets int) *Vector {
	v := &Vector{Originator: a.orig, Queriers: a.nq, Queries: a.queries}
	s := vecScratchPool.Get().(*vecScratch)
	defer vecScratchPool.Put(s)
	s.sample = s.sample[:0]
	for _, q := range a.queriers {
		s.sample = append(s.sample, SampleOf(x.CategoryOf, q))
	}
	sm := s.summarize(x.Geo, s.sample)
	sm.fill(v)

	n := float64(a.nq)
	d := v.X[NumStatic:]
	d[DynQueriesPerQuerier] = float64(a.queries) / n
	d[DynPersistence] = float64(a.nbuckets) / float64(totalBuckets)
	d[DynUniqueASes] = ratio(sm.ASes, totalAS)
	d[DynUniqueCountries] = ratio(sm.Countries, totalCountry)
	if sm.Countries > 0 && totalQueriers > 0 {
		d[DynQueriersPerCountry] = n / float64(sm.Countries) / float64(totalQueriers)
	}
	if sm.ASes > 0 && totalQueriers > 0 {
		d[DynQueriersPerAS] = n / float64(sm.ASes) / float64(totalQueriers)
	}
	return v
}

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// normEntropy computes Shannon entropy over counts (which sum to n) and
// normalizes by log2(min(n, space)) — the entropy of n queriers spread as
// evenly as the prefix space allows. The counts are sorted first, so the
// float summation depends only on their multiset, never on the order the
// caller met the prefixes in.
func normEntropy(counts []int, n, space int) float64 {
	if n <= 1 {
		return 0
	}
	sort.Ints(counts)
	// Equal counts are adjacent now and contribute equal terms: one
	// logarithm per distinct count, the same sum term by term.
	h, term, prev := 0.0, 0.0, 0
	for _, c := range counts {
		if c != prev {
			p := float64(c) / float64(n)
			term, prev = p*math.Log2(p), c
		}
		h -= term
	}
	denom := math.Log2(math.Min(float64(n), float64(space)))
	if denom <= 0 {
		return 0
	}
	if v := h / denom; v < 1 {
		return v
	}
	return 1
}
