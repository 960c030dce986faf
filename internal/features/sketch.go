package features

import (
	"cmp"
	"slices"

	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
)

// SketchStats is the sketch-derived summary of one originator over an
// observation interval: the footprint estimate, the exact
// deduplicated query count, the distinct 10-minute persistence buckets,
// and the bottom-k uniform sample of distinct queriers, each classified
// when it entered the sample. It is the hand-off type between the sketch
// holder (the stream engine) and the vector computation below; Sample may
// be a view of the holder's state, read here and never kept.
type SketchStats struct {
	Originator ipaddr.Addr
	Estimate   int // unique-querier estimate, exact below the sample size
	Queries    int // deduplicated query count
	Buckets    int // distinct 10-minute buckets observed
	Sample     []Sampled
}

// SketchNorms holds the interval-level normalizers the dynamic features
// divide by, estimated from the union of per-originator samples with the
// querier total rescaled by estimate mass (samples undercount global
// uniques).
type SketchNorms struct {
	TotalAS       int
	TotalCountry  int
	TotalQueriers int
	TotalBuckets  int
}

// NormScratch is NormsFromStats' working memory: the gathered sampled
// addresses, the radix sort's second buffer and the ASN run list. A caller
// that computes norms every epoch keeps one and passes it each time, as
// Partition's caller keeps its index buffer.
type NormScratch struct {
	all, tmp []uint32
	asns     []int
}

// NormsFromStats computes interval normalizers from every originator's
// sketch stats (analyzable or not — the paper's normalizers count all
// observed queriers). They are sizes of sets over the union of the
// samples, which no sample's own change updates in place, so every epoch
// recomputes them: one radix sort of all sampled addresses, then a scan.
// Set sizes and integer-valued sums are order-insensitive, so the result
// is identical however stats is ordered. buf grows as append does and is
// otherwise reused; nothing in it is read before it is written.
func NormsFromStats(g *geo.Registry, stats []SketchStats, dur simtime.Duration, buf *NormScratch) SketchNorms {
	norms := SketchNorms{TotalBuckets: max(1, int(dur/(10*simtime.Minute)))}
	total := 0
	var estMass float64
	for _, st := range stats {
		estMass += float64(st.Estimate)
		total += len(st.Sample)
	}
	all := buf.all[:0]
	for _, st := range stats {
		for _, sq := range st.Sample {
			all = append(all, uint32(sq.Addr()))
		}
	}
	buf.all, buf.tmp = all, slices.Grow(buf.tmp[:0], total)
	all = radixSort(all, buf.tmp[:total])
	asns := buf.asns[:0]
	var countries countrySet
	for i, q := range all {
		if i > 0 && q == all[i-1] {
			continue
		}
		norms.TotalQueriers++
		if asn := g.ASN(ipaddr.Addr(q)); len(asns) == 0 || asns[len(asns)-1] != asn {
			asns = append(asns, asn)
		}
		countries.add(g, ipaddr.Addr(q))
	}
	buf.asns = asns
	norms.TotalAS, norms.TotalCountry = len(sortUniq(asns)), countries.len()
	if total > 0 {
		norms.TotalQueriers = int(float64(norms.TotalQueriers) * estMass / float64(total))
	}
	return norms
}

// radixSort sorts a ascending in three 11-bit passes through tmp, which
// must be as long, and returns whichever of the two holds the result.
func radixSort(a, tmp []uint32) []uint32 {
	for shift := 0; shift < 32; shift += 11 {
		var next [1<<11 + 1]int
		for _, v := range a {
			next[v>>shift&(1<<11-1)+1]++
		}
		for d := 1; d < len(next); d++ {
			next[d] += next[d-1]
		}
		for _, v := range a {
			d := v >> shift & (1<<11 - 1)
			tmp[next[d]] = v
			next[d]++
		}
		a, tmp = tmp[:len(a)], a
	}
	return a
}

// Summarize scans a querier sample into its Summary — the only part of a
// sketch vector whose cost grows with the sample, and a function of the
// sample alone: a holder may keep it until the sample changes. The sample
// must be in ascending order, which is address order, as a stream
// originator's hll.BottomK keeps it; Summarize neither copies nor sorts
// it.
func Summarize(g *geo.Registry, sample []Sampled) Summary {
	s := vecScratchPool.Get().(*vecScratch)
	defer vecScratchPool.Put(s)
	return s.summarize(g, sample)
}

// SketchVector computes one originator's feature vector from its sketch
// stats and the Summary of st.Sample: static fractions, entropies, and
// dispersion come from the bottom-k sample (scaled to the footprint
// estimate where the feature is a count), Queriers carries the footprint
// estimate. Returns nil when the sample is empty. The computation is a
// pure function of (stats, norms): every accumulation is integer or
// order-normalized (normEntropy sorts), so byte-identical inputs give
// byte-identical vectors.
func SketchVector(st SketchStats, sm *Summary, norms SketchNorms) *Vector {
	n := sm.N
	if n == 0 {
		return nil
	}
	est := st.Estimate
	v := &Vector{Originator: st.Originator, Queriers: est, Queries: st.Queries}
	sm.fill(v)
	nAS, nCountry := sm.ASes, sm.Countries
	d := v.X[NumStatic:]
	d[DynQueriesPerQuerier] = float64(st.Queries) / float64(est)
	d[DynPersistence] = float64(st.Buckets) / float64(norms.TotalBuckets)
	// Dispersion scales from the sample to the full footprint.
	scale := float64(est) / float64(n)
	d[DynUniqueASes] = ratio(int(float64(nAS)*scale+0.5), norms.TotalAS)
	if d[DynUniqueASes] > 1 {
		d[DynUniqueASes] = 1
	}
	d[DynUniqueCountries] = ratio(nCountry, norms.TotalCountry)
	if nCountry > 0 && norms.TotalQueriers > 0 {
		d[DynQueriersPerCountry] = float64(est) / float64(nCountry) / float64(norms.TotalQueriers)
	}
	if nAS > 0 && norms.TotalQueriers > 0 {
		estAS := float64(nAS) * scale
		d[DynQueriersPerAS] = float64(est) / estAS / float64(norms.TotalQueriers)
	}
	return v
}

// SortVectors orders vectors in the pipeline's canonical emission order:
// footprint descending, originator address ascending — the order every
// extractor and snapshot emits, so downstream artifacts are
// byte-deterministic.
func SortVectors(vs []*Vector) {
	slices.SortFunc(vs, func(a, b *Vector) int {
		if a.Queriers != b.Queriers {
			return b.Queriers - a.Queriers
		}
		return cmp.Compare(a.Originator, b.Originator)
	})
}
