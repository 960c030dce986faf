package stream

import (
	"bytes"
	"cmp"
	"fmt"
	"slices"
	"strings"
	"testing"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/hll"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/prof"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

// testCategories steers static features from the querier's last octet.
func testCategories(a ipaddr.Addr) qname.Category {
	_, _, _, o3 := a.Octets()
	switch o3 % 3 {
	case 0:
		return qname.Mail
	case 1:
		return qname.Home
	default:
		return qname.NS
	}
}

// parityScorer is a deterministic stand-in for a trained model, scoring
// an epoch in one call as the model does.
type parityScorer struct{}

func (parityScorer) ClassifyBatch(vs []*features.Vector, classes []activity.Class) {
	for i, v := range vs {
		classes[i] = activity.Mail
		if v.Queriers%2 == 0 {
			classes[i] = activity.Scan
		}
	}
}

// genRecords builds a seeded stream: nOrig originators with footprints
// spread over [1, 2*perOrig), timestamps advancing ~3 s per record so a
// few thousand records span multiple 10-minute buckets.
func genRecords(seed uint64, nOrig, perOrig int) []dnslog.Record {
	st := rng.New(seed)
	var recs []dnslog.Record
	t := simtime.Time(1000)
	for o := 0; o < nOrig; o++ {
		orig := ipaddr.FromOctets(192, byte(o>>8), byte(o), 1)
		nq := 1 + st.Intn(2*perOrig)
		for q := 0; q < nq; q++ {
			recs = append(recs, dnslog.Record{
				Time:       t,
				Originator: orig,
				Querier:    ipaddr.Addr(st.Uint64()),
			})
			t = t.Add(3)
		}
	}
	// Interleave across originators so shards fill concurrently.
	st.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	return recs
}

func testConfig(workers int) Config {
	return Config{
		Geo:            geo.NewRegistry(42),
		CategoryOf:     testCategories,
		Scorer:         parityScorer{},
		MinQueriers:    10,
		Epoch:          simtime.Hour,
		MaxOriginators: 1 << 10,
		SampleK:        64,
		HHHCapacity:    64,
		Seed:           7,
		Workers:        workers,
	}
}

func feedIn(e *Engine, recs []dnslog.Record, batch int) {
	for i := 0; i < len(recs); i += batch {
		j := i + batch
		if j > len(recs) {
			j = len(recs)
		}
		e.Ingest(recs[i:j])
	}
}

// TestWorkerDeterminism pins the package contract: identical record
// sequences produce byte-identical snapshots and status at workers
// {1, 8}, whatever the batch size.
func TestWorkerDeterminism(t *testing.T) {
	recs := genRecords(1, 300, 30)
	var snaps [][]byte
	var status [][]byte
	for _, w := range []int{1, 8} {
		for _, batch := range []int{97, 4096} {
			e := New(testConfig(w))
			feedIn(e, recs, batch)
			e.Tick(recs[len(recs)-1].Time + 1)
			snaps = append(snaps, e.Snapshot())
			status = append(status, e.StatusJSON())
		}
	}
	for i := 1; i < len(snaps); i++ {
		if !bytes.Equal(snaps[0], snaps[i]) {
			t.Fatalf("snapshot %d differs from snapshot 0 (workers/batch variation changed bytes)", i)
		}
		if !bytes.Equal(status[0], status[i]) {
			t.Fatalf("status %d differs from status 0", i)
		}
	}
	if !strings.Contains(string(snaps[0]), "verdict ") {
		t.Fatal("snapshot carries no verdicts")
	}
	if !strings.Contains(string(snaps[0]), "hhh originators") ||
		!strings.Contains(string(snaps[0]), "hhh queriers") {
		t.Fatal("snapshot missing heavy-hitter sections")
	}
}

// TestOriginatorBound floods the engine with 10× its capacity: tracked
// state must respect the hard bound, evictions must fire, and the
// heavy-hitter view must keep the evicted mass (total == kept records).
func TestOriginatorBound(t *testing.T) {
	cfg := testConfig(4)
	cfg.MaxOriginators = 256
	cfg.DedupWindow = 0
	e := New(cfg)
	st := rng.New(3)
	var recs []dnslog.Record
	for i := 0; i < 10*256; i++ {
		recs = append(recs, dnslog.Record{
			Time:       simtime.Time(1000 + i),
			Originator: ipaddr.Addr(st.Uint64()),
			Querier:    ipaddr.Addr(st.Uint64()),
		})
	}
	feedIn(e, recs, 512)
	if st := e.Status(); st.Tracked > st.MaxTracked {
		t.Fatalf("tracked %d exceeds hard bound %d", st.Tracked, st.MaxTracked)
	}
	status := e.Status()
	if status.Evictions == 0 {
		t.Fatal("10x overload produced no evictions")
	}
	if status.Kept != uint64(len(recs)) {
		t.Fatalf("kept %d records, want %d (dedup off)", status.Kept, len(recs))
	}
	snap := string(e.Snapshot())
	if !strings.Contains(snap, "hhh originators total=2560") {
		t.Errorf("heavy hitters lost evicted mass:\n%.200s", snap)
	}
}

// TestEpochRescoring drives three epochs and checks verdicts, churn
// accounting, and the windowed epoch series.
func TestEpochRescoring(t *testing.T) {
	cfg := testConfig(2)
	reg := obs.NewRegistry()
	win := obs.NewWindow(simtime.Hour)
	reg.SetWindow(win)
	cfg.Obs = reg
	cfg.Acct = prof.New()

	e := New(cfg)
	st := rng.New(5)
	orig := ipaddr.MustParse("10.0.0.1")
	var recs []dnslog.Record
	for ep := 0; ep < 3; ep++ {
		base := simtime.Time(ep) * simtime.Time(simtime.Hour)
		for q := 0; q < 100; q++ {
			recs = append(recs, dnslog.Record{
				Time:       base + simtime.Time(q*35),
				Originator: orig,
				Querier:    ipaddr.Addr(st.Uint64()),
			})
		}
	}
	// A second originator stays under MinQueriers = 10: it holds sketch
	// state but must never surface as a vector.
	for q := 0; q < 5; q++ {
		recs = append(recs, dnslog.Record{Time: simtime.Time(q * 35),
			Originator: ipaddr.MustParse("10.0.0.2"), Querier: ipaddr.Addr(st.Uint64())})
	}
	e.Ingest(recs)
	e.Tick(3 * simtime.Time(simtime.Hour))
	status := e.Status()
	if status.Epochs != 3 {
		t.Fatalf("epochs = %d, want 3 (two boundary crossings + final tick)", status.Epochs)
	}
	if status.Analyzable != 1 || status.Tracked != 2 {
		t.Fatalf("analyzable = %d of %d tracked, want 1 of 2 (the 5-querier originator is below the threshold)",
			status.Analyzable, status.Tracked)
	}
	if len(e.Vectors()) != 1 || e.Vectors()[0].Originator != orig {
		t.Fatal("vectors missing the tracked originator")
	}
	if c, ok := e.Verdicts()[orig]; !ok || (c != activity.Scan && c != activity.Mail) {
		t.Fatalf("verdict missing or unexpected: %v %v", c, ok)
	}
	wsnap := string(win.Snapshot())
	if !strings.Contains(wsnap, "stream_epochs_total") {
		t.Error("window missing stream_epochs_total series")
	}
	if !strings.Contains(wsnap, "stream_verdicts_total") {
		t.Error("window missing stream_verdicts_total series")
	}
	if reg.Counter("stream_records_total").Value() != uint64(len(recs)) {
		t.Error("stream_records_total does not match ingested count")
	}
}

// TestGateIsExact holds the analyzability gate at the paper's 20 queriers
// and the default sample size: below SampleK the footprint is exact, so
// an originator with 19 distinct queriers, each seen three times, gets no
// verdict and one with 20 gets one, its vector counting 20.
func TestGateIsExact(t *testing.T) {
	cfg := testConfig(1)
	cfg.MinQueriers, cfg.SampleK = 0, 0
	e := New(cfg)
	below, at := ipaddr.MustParse("10.0.0.19"), ipaddr.MustParse("10.0.0.20")
	var recs []dnslog.Record
	for rep := range 3 {
		for q := range 20 {
			r := dnslog.Record{Time: simtime.Time(rep*600 + q), Originator: at, Querier: ipaddr.FromOctets(172, 16, 0, byte(q))}
			recs = append(recs, r)
			if q < 19 {
				r.Originator = below
				recs = append(recs, r)
			}
		}
	}
	e.Ingest(recs)
	e.Tick(simtime.Time(simtime.Hour))
	if st := e.Status(); st.Kept != 3*39 || st.Tracked != 2 {
		t.Fatalf("kept %d records of %d originators, want %d of 2", st.Kept, st.Tracked, 3*39)
	}
	verdicts := e.Verdicts()
	if _, ok := verdicts[below]; ok {
		t.Error("an originator with 19 distinct queriers got a verdict")
	}
	if _, ok := verdicts[at]; !ok {
		t.Error("an originator with 20 distinct queriers got no verdict")
	}
	if vs := e.Vectors(); len(vs) != 1 || vs[0].Queriers != 20 {
		t.Errorf("vectors %v, want one counting 20 queriers", vs)
	}
}

// TestOutOfOrderAndDuplicates replays a shuffled, duplicated stream:
// no panics, the watermark is the max time, and scoring still works.
func TestOutOfOrderAndDuplicates(t *testing.T) {
	recs := genRecords(9, 50, 20)
	recs = append(recs, recs[:200]...) // exact duplicates
	st := rng.New(1)
	st.Shuffle(len(recs), func(i, j int) { recs[i], recs[j] = recs[j], recs[i] })
	var max simtime.Time
	for _, r := range recs {
		if r.Time > max {
			max = r.Time
		}
	}
	e := New(testConfig(3))
	feedIn(e, recs, 333)
	e.Tick(max + 1)
	if got := e.Status().Watermark; got != max {
		t.Fatalf("watermark %v, want %v", got, max)
	}
	if e.Status().Epochs == 0 {
		t.Fatal("no rescore ran")
	}
}

// TestEpochJump checks that one far-future record advances the epoch
// clock directly instead of replaying every intermediate tick.
func TestEpochJump(t *testing.T) {
	e := New(testConfig(1))
	q := rng.New(2)
	mk := func(at simtime.Time) dnslog.Record {
		return dnslog.Record{Time: at, Originator: ipaddr.MustParse("10.9.9.9"),
			Querier: ipaddr.Addr(q.Uint64())}
	}
	e.Ingest([]dnslog.Record{mk(0), mk(40), mk(1000 * simtime.Time(simtime.Hour)), mk(80)})
	if got := e.Status().Epochs; got != 1 {
		t.Fatalf("epochs = %d after jump, want exactly 1 boundary score", got)
	}
	if got := e.Status().Records; got != 4 {
		t.Fatalf("records = %d, want 4 (stragglers still ingested)", got)
	}
}

// TestDefaultsAndEmpty covers config defaulting, empty ingest, ticks
// before start, and the unscored snapshot path (nil Scorer).
func TestDefaultsAndEmpty(t *testing.T) {
	e := New(Config{Geo: geo.NewRegistry(1), CategoryOf: testCategories})
	if max := e.Status().MaxTracked; max < 1<<16 {
		t.Fatalf("default MaxTracked %d < 2^16", max)
	}
	e.Ingest(nil)
	e.Tick(50) // not started: no-op
	if e.Status().Epochs != 0 {
		t.Fatal("tick before first record must not score")
	}
	st := rng.New(4)
	var recs []dnslog.Record
	for q := 0; q < 120; q++ {
		recs = append(recs, dnslog.Record{Time: simtime.Time(q * 31),
			Originator: ipaddr.MustParse("10.1.1.1"), Querier: ipaddr.Addr(st.Uint64())})
	}
	e.Ingest(recs)
	e.Tick(simtime.Time(simtime.Hour))
	e.Tick(simtime.Time(simtime.Hour)) // repeat tick at same instant: no-op
	if got := e.Status().Epochs; got != 1 {
		t.Fatalf("epochs = %d, want 1", got)
	}
	snap := string(e.Snapshot())
	if !strings.Contains(snap, "unscored") {
		t.Errorf("nil-Scorer snapshot should mark vectors unscored:\n%.200s", snap)
	}
	if len(e.Verdicts()) != 0 {
		t.Error("nil Scorer produced verdicts")
	}
}

// TestDedupWindow pins the sliding-window suppression: repeats inside
// the window are dropped, repeats outside are kept.
func TestDedupWindow(t *testing.T) {
	e := New(testConfig(1))
	o, q := ipaddr.MustParse("10.2.2.2"), ipaddr.MustParse("172.16.0.1")
	e.Ingest([]dnslog.Record{
		{Time: 100, Originator: o, Querier: q},
		{Time: 101, Originator: o, Querier: q}, // inside 30 s window
		{Time: 200, Originator: o, Querier: q}, // outside
	})
	if got := e.Status().Kept; got != 2 {
		t.Fatalf("kept = %d, want 2", got)
	}
}

// TestDedupExactOnCollision alternates two pairs whose hashes share their
// low 16 bits, the home slot they would share in a table of 2^16 slots or
// fewer, inside one window: both repeats are suppressed. A direct-mapped
// window keeps all four records, each overwriting the other pair.
func TestDedupExactOnCollision(t *testing.T) {
	o, a := ipaddr.MustParse("10.3.3.3"), ipaddr.MustParse("172.16.0.1")
	key := func(q ipaddr.Addr) uint64 { return hll.Hash64(uint64(o)<<32 ^ uint64(q)) }
	b := a + 1
	for key(b)&0xffff != key(a)&0xffff {
		b++
	}
	e := New(testConfig(1))
	e.Ingest([]dnslog.Record{
		{Time: 100, Originator: o, Querier: a},
		{Time: 101, Originator: o, Querier: b},
		{Time: 102, Originator: o, Querier: a},
		{Time: 103, Originator: o, Querier: b},
	})
	if got := e.Status().Kept; got != 2 {
		t.Fatalf("kept %d of two pairs seen twice each within 30 s, want 2", got)
	}
}

// TestSampleIsExactBottomK drives one shard with random records: queriers
// from a pool of 40, so most offers repeat and full samples of 8 see both
// admissions and refusals, and six originators against a bound of four,
// so evictions drop samples and later ones start afresh. After every
// record each tracked originator's sample must be exactly the 8 smallest
// distinct querier hashes kept since it was last tracked, in address
// order, each with its category.
func TestSampleIsExactBottomK(t *testing.T) {
	cfg := testConfig(1)
	cfg.SampleK = 8
	cfg.MaxOriginators = 4 * engineShards
	e := New(cfg)
	st := rng.New(11)
	origs := []ipaddr.Addr{ipaddr.MustParse("10.9.0.1")}
	for o := origs[0] + 1; len(origs) < 6; o++ {
		if features.ShardOf(o) == features.ShardOf(origs[0]) {
			origs = append(origs, o)
		}
	}
	sh := shardOf(e, origs[0])
	pool := make([]ipaddr.Addr, 40)
	for i := range pool {
		pool[i] = ipaddr.Addr(st.Uint64())
	}
	seen := map[ipaddr.Addr]map[ipaddr.Addr]bool{} // queriers kept since tracked
	evictions := 0
	for i := range 3000 {
		r := dnslog.Record{Time: simtime.Time(i), Originator: origs[st.Intn(len(origs))], Querier: pool[st.Intn(len(pool))]}
		_, tracked := sh.aggs[r.Originator]
		kept := sh.kept
		sh.observe(r, &e.cfg)
		if sh.kept != kept {
			if !tracked {
				seen[r.Originator] = map[ipaddr.Addr]bool{}
			}
			seen[r.Originator][r.Querier] = true
		}
		for o := range seen {
			if _, ok := sh.aggs[o]; !ok {
				delete(seen, o)
				evictions++
			}
		}
		for o, a := range sh.aggs {
			qs := make([]ipaddr.Addr, 0, len(seen[o]))
			for q := range seen[o] {
				qs = append(qs, q)
			}
			slices.SortFunc(qs, func(a, b ipaddr.Addr) int { return cmp.Compare(hll.Hash64(uint64(a)), hll.Hash64(uint64(b))) })
			qs = qs[:min(len(qs), cfg.SampleK)]
			slices.Sort(qs)
			want := make([]features.Sampled, len(qs))
			for j, q := range qs {
				want[j] = features.SampleOf(testCategories, q)
			}
			if got := a.sample.Values(); !slices.Equal(got, want) {
				t.Fatalf("record %d: %v's sample %v, want the bottom %d of %d queriers in address order %v",
					i, o, got, cfg.SampleK, len(seen[o]), want)
			}
		}
	}
	if evictions == 0 {
		t.Fatal("no originator was evicted")
	}
}

// shardOf returns the engine shard that holds o's pairs.
func shardOf(e *Engine, o ipaddr.Addr) *shard {
	return e.shards[features.ShardOf(o)]
}

// TestDedupStraggler grows a shard's table with pairs sighted an hour and
// 29 s after a pair P, then replays P 29 s after its sighting, exactly
// dedupLateness late: the sweeps that ran while the table grew kept P,
// so the straggler is suppressed.
func TestDedupStraggler(t *testing.T) {
	e := New(testConfig(1))
	o, p := ipaddr.MustParse("10.4.4.4"), ipaddr.MustParse("172.16.0.1")
	const at = 1000
	high := simtime.Time(at + 29).Add(dedupLateness)
	recs := []dnslog.Record{{Time: at, Originator: o, Querier: p}}
	for q := 0; q < 100; q++ {
		recs = append(recs, dnslog.Record{Time: high, Originator: o, Querier: ipaddr.FromOctets(192, 168, 0, byte(q))})
	}
	e.Ingest(recs)
	d := &shardOf(e, o).dedup
	if len(d.slots) <= dedupMinSlots || d.swept == 0 {
		t.Fatalf("table of %d slots after %d slot reads by sweeps, want it grown", len(d.slots), d.swept)
	}
	e.Ingest([]dnslog.Record{{Time: at + 29, Originator: o, Querier: p}})
	if got := e.Status().Kept; got != 101 {
		t.Fatalf("kept %d, want 101: a straggler %v late was not suppressed", got, high.Sub(at+29))
	}
}

// TestDedupFlood sends more distinct pairs than a shard's table may hold
// within one window, then a second wave 100 s later, when the first has
// passed the window but not the lateness allowance. The table never
// passes dedupMaxSlots; sweeps read at most 12 slots per new pair (a
// sweep reads the table up to three times and comes after at least a
// quarter-table of new pairs); and once a sweep with no lateness
// allowance has cleared the first wave, the second wave's repeats within
// the window are suppressed.
func TestDedupFlood(t *testing.T) {
	e := New(testConfig(1))
	o := ipaddr.MustParse("10.5.5.5")
	d := &shardOf(e, o).dedup
	wave := func(at simtime.Time, from, n int) {
		recs := make([]dnslog.Record, 0, 4096)
		for i := from; i < from+n; i++ {
			recs = append(recs, dnslog.Record{Time: at + simtime.Time(i%20), Originator: o, Querier: ipaddr.Addr(i)})
			if len(recs) == cap(recs) || i == from+n-1 {
				e.Ingest(recs)
				recs = recs[:0]
				if len(d.slots) > dedupMaxSlots {
					t.Fatalf("dedup table grew to %d slots, past the bound %d", len(d.slots), dedupMaxSlots)
				}
			}
		}
	}
	first, second := dedupMaxSlots+10000, 30000
	wave(1000, 0, first)
	if len(d.slots) != dedupMaxSlots {
		t.Fatalf("table of %d slots after %d pairs in one window, want the bound %d", len(d.slots), first, dedupMaxSlots)
	}
	wave(1100, first, second)
	inserts := uint64(first + second)
	if d.swept > 12*inserts {
		t.Errorf("sweeps read %d slots for %d new pairs, more than 12 a pair", d.swept, inserts)
	}
	kept := e.Status().Kept
	// The last 1000 of the second wave came after its first sweep, at most
	// a quarter-table of new pairs into it; each repeat within 30 s.
	wave(1100+20, first+second-1000, 1000)
	if got := e.Status().Kept; got != kept {
		t.Fatalf("%d of 1000 in-window repeats kept after a sweep", got-kept)
	}
}

// BenchmarkEngineIngest times partition + dedup miss + sketch update: each
// iteration replays the batch one dedup window later, so no record is
// suppressed as a repeat of the previous iteration's. The epoch is longer
// than any run, so re-scoring stays out of the number.
func BenchmarkEngineIngest(b *testing.B) {
	cfg := testConfig(0)
	cfg.Epoch = 1 << 40
	e := New(cfg)
	recs := genRecords(1, 256, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Ingest(recs)
		// Fold what the shards buffered, so that every kept record's
		// heavy-hitter update is timed whatever b.N.
		for _, sh := range e.shards {
			sh.fold()
		}
		for j := range recs {
			recs[j].Time = recs[j].Time.Add(30 * simtime.Second)
		}
	}
	if kept := e.Status().Kept; kept != uint64(b.N*len(recs)) {
		b.Fatalf("kept %d of %d records: the benchmark measured dedup hits", kept, b.N*len(recs))
	}
}

// BenchmarkEngineRescore times one epoch re-score of 4096 tracked,
// analyzable originators, of which the given share received a new querier
// since the last one (ingest itself is untimed). The spread between the
// sub-cases is what the engine's stale bits buy; the 0 % case is the floor
// every epoch pays for gathering, norms and the scorer.
func BenchmarkEngineRescore(b *testing.B) {
	for _, share := range []int{0, 10, 100} {
		b.Run(fmt.Sprintf("touched=%d%%", share), func(b *testing.B) {
			const nOrig = 4096
			cfg := testConfig(0)
			cfg.Epoch = 1 << 40
			cfg.MaxOriginators = 2 * nOrig
			e := New(cfg)
			st := rng.New(1)
			at := simtime.Time(0)
			fresh := func(o int) dnslog.Record {
				return dnslog.Record{Time: at, Originator: ipaddr.FromOctets(192, byte(o>>8), byte(o), 1),
					Querier: ipaddr.Addr(st.Uint64())}
			}
			var recs []dnslog.Record
			for o := 0; o < nOrig; o++ {
				for q := 0; q < 24; q++ {
					recs = append(recs, fresh(o))
				}
			}
			e.Ingest(recs)
			at++
			e.Tick(at)
			if got := e.Status().Analyzable; got != nOrig {
				b.Fatalf("%d of %d originators analyzable", got, nOrig)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				recs = recs[:0]
				for o := 0; o < nOrig*share/100; o++ {
					recs = append(recs, fresh(o))
				}
				e.Ingest(recs)
				at++
				b.StartTimer()
				e.Tick(at)
			}
		})
	}
}

// TestStatusValues pins the scalar flattening the alert engine's
// stream() expressions read: every key present, values matching the
// struct fields.
func TestStatusValues(t *testing.T) {
	s := Status{Epochs: 3, ScoredAt: 7200, Watermark: 7300, Records: 10,
		Kept: 8, Tracked: 5, MaxTracked: 64, Evictions: 2, Analyzable: 4, Churn: 6}
	v := s.Values()
	want := map[string]float64{
		"epochs": 3, "scored_at": 7200, "watermark": 7300, "records": 10,
		"kept": 8, "tracked": 5, "max_tracked": 64, "evictions": 2,
		"analyzable": 4, "churn": 6,
	}
	if len(v) != len(want) {
		t.Fatalf("Values has %d keys, want %d: %v", len(v), len(want), v)
	}
	for k, w := range want {
		if v[k] != w {
			t.Errorf("Values[%q] = %v, want %v", k, v[k], w)
		}
	}
}
