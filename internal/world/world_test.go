package world

import (
	"math"
	"testing"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/simtime"
)

// smallConfig keeps unit-test worlds quick: ~1 simulated day, modest rates.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Duration = simtime.Day
	cfg.RateScale = 0.3
	return cfg
}

func TestRunProducesBackscatter(t *testing.T) {
	w := New(smallConfig())
	w.Run()
	if len(w.BRoot.Records()) == 0 || len(w.MRoot.Records()) == 0 {
		t.Fatalf("roots empty: b=%d m=%d", len(w.BRoot.Records()), len(w.MRoot.Records()))
	}
	if jp := w.National["jp"]; len(jp.Records()) == 0 {
		t.Fatal("jp national sensor empty")
	}
	if w.QuerierPoolSize() == 0 {
		t.Fatal("no queriers materialized")
	}
}

func TestRunIdempotent(t *testing.T) {
	w := New(smallConfig())
	w.Run()
	n := len(w.BRoot.Records())
	w.Run()
	if len(w.BRoot.Records()) != n {
		t.Error("second Run added records")
	}
}

func TestDeterminism(t *testing.T) {
	a := New(smallConfig())
	b := New(smallConfig())
	a.Run()
	b.Run()
	ra, rb := a.BRoot.Records(), b.BRoot.Records()
	if len(ra) != len(rb) {
		t.Fatalf("record counts differ: %d vs %d", len(ra), len(rb))
	}
	for i := range ra {
		if ra[i] != rb[i] {
			t.Fatalf("record %d differs", i)
		}
	}
	if len(a.Campaigns) != len(b.Campaigns) {
		t.Error("campaign populations differ")
	}
}

func TestSeedChangesWorld(t *testing.T) {
	cfg := smallConfig()
	a := New(cfg)
	cfg.Seed = 2
	b := New(cfg)
	a.Run()
	b.Run()
	if len(a.BRoot.Records()) == len(b.BRoot.Records()) {
		// Equal lengths are possible but identical contents are not.
		same := true
		for i := range a.BRoot.Records() {
			if a.BRoot.Records()[i] != b.BRoot.Records()[i] {
				same = false
				break
			}
		}
		if same && len(a.BRoot.Records()) > 0 {
			t.Error("different seeds produced identical logs")
		}
	}
}

func TestTruthCoversAllSensedOriginators(t *testing.T) {
	w := New(smallConfig())
	w.Run()
	for _, r := range w.National["jp"].Records() {
		if _, ok := w.Truth(r.Originator); !ok {
			t.Fatalf("originator %v sensed but not in ground truth", r.Originator)
		}
	}
}

func TestJPSensorOnlySeesJPOriginators(t *testing.T) {
	w := New(smallConfig())
	w.Run()
	for _, r := range w.National["jp"].Records() {
		if got := w.Geo.Country(r.Originator); got != "jp" {
			t.Fatalf("jp sensor saw originator in %q", got)
		}
	}
}

func TestTimestampsInsideSpan(t *testing.T) {
	cfg := smallConfig()
	w := New(cfg)
	w.Run()
	end := cfg.Start.Add(cfg.Duration)
	check := func(recs []dnslog.Record, name string) {
		for _, r := range recs {
			if r.Time.Before(cfg.Start) || !r.Time.Before(end) {
				t.Fatalf("%s record at %v outside [%v, %v)", name, r.Time, cfg.Start, end)
			}
		}
	}
	check(w.BRoot.Records(), "b-root")
	check(w.MRoot.Records(), "m-root")
	check(w.National["jp"].Records(), "jp")
}

func TestQuerierNamesResolvable(t *testing.T) {
	w := New(smallConfig())
	w.Run()
	named, nameless := 0, 0
	seen := make(map[ipaddr.Addr]bool)
	for _, r := range w.BRoot.Records() {
		if seen[r.Querier] {
			continue
		}
		seen[r.Querier] = true
		name, _ := w.QuerierName(r.Querier)
		if name == "" {
			nameless++
		} else {
			named++
			if qname.Classify(name) == qname.Other && len(name) < 3 {
				t.Fatalf("suspicious querier name %q", name)
			}
		}
	}
	if named == 0 {
		t.Fatal("no named queriers in logs")
	}
	// The paper sees 14-19% of queriers without reverse names; the sim
	// should be in a broadly similar band.
	frac := float64(nameless) / float64(named+nameless)
	if frac < 0.05 || frac > 0.45 {
		t.Errorf("nameless querier fraction = %.2f, want 0.05-0.45", frac)
	}
}

// TestQuerierCategoryMatchesName: after Run, which collapses the pool,
// every materialized querier's slot replays to its own address, and its
// category is what its regenerated name classifies as (Unreach when its
// reverse zone is unreachable) — so a table that stored a wrong category
// fails here. Seed 3 gives Mexico address space, so some of its 26,000
// queriers have Other names under "mx", which classify as Mail: the slot's
// key category would be wrong for them.
func TestQuerierCategoryMatchesName(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Seed = 3
	w := New(cfg)
	w.Run()
	rekeyed := 0
	for a, s := range w.pool.named {
		if addr, _ := w.pool.replay(s); addr != a {
			t.Fatalf("%v: slot %#x replays to %v", a, s, addr)
		}
		name, unreach := w.QuerierName(a)
		if got, want := w.QuerierCategory(a), qname.ClassifyQuerier(name, unreach); got != want {
			t.Errorf("%v (%q, unreach %v): category %v, classifies as %v", a, name, unreach, got, want)
		}
		if s.category() != s.key().cat {
			rekeyed++
		}
	}
	if rekeyed == 0 {
		t.Error("no querier's name classifies away from its slot's category")
	}
}

// TestQuerierCategoryAllocates0: the extractor reads a category per
// distinct querier of every originator; the lookup must not allocate.
func TestQuerierCategoryAllocates0(t *testing.T) {
	w := &World{pool: newTestPool(42)}
	a := w.pool.get(poolKey{cat: qname.Mail, country: 3, rank: 5}).Addr
	w.pool.collapse()
	if allocs := testing.AllocsPerRun(100, func() { w.QuerierCategory(a) }); allocs != 0 {
		t.Errorf("QuerierCategory allocates %v times", allocs)
	}
}

func TestRootAttenuation(t *testing.T) {
	w := New(smallConfig())
	w.Run()
	// Roots must see far fewer queries than the sum of what all national
	// registries would: compare root volume against jp volume scaled by
	// jp's share of originators. Cheap proxy: roots see fewer queries per
	// originator than the jp sensor does for jp originators.
	jpSeen := w.National["jp"].Seen()
	rootSeen := w.BRoot.Seen() + w.MRoot.Seen()
	if jpSeen == 0 {
		t.Skip("no jp traffic this seed")
	}
	// jp covers ~25% of originators (JPShare); the roots cover all of
	// them. Without attenuation roots would see ≥4x jp volume.
	if float64(rootSeen) > 3.0*float64(jpSeen)/0.25 {
		t.Errorf("roots saw %d vs jp %d: no evidence of attenuation", rootSeen, jpSeen)
	}
}

func TestMRootPrefersAsia(t *testing.T) {
	w := New(smallConfig())
	w.Run()
	asiaM, asiaB := 0, 0
	for _, r := range w.MRoot.Records() {
		if w.Geo.Region(r.Querier) == "asia" {
			asiaM++
		}
	}
	for _, r := range w.BRoot.Records() {
		if w.Geo.Region(r.Querier) == "asia" {
			asiaB++
		}
	}
	fracM := float64(asiaM) / float64(len(w.MRoot.Records()))
	fracB := float64(asiaB) / float64(len(w.BRoot.Records()))
	if fracM <= fracB {
		t.Errorf("asia fraction at M (%.2f) not above B (%.2f)", fracM, fracB)
	}
}

func TestMSampling(t *testing.T) {
	cfg := smallConfig()
	cfg.MSample = 10
	w := New(cfg)
	w.Run()
	seen := w.MRoot.Seen()
	got := len(w.MRoot.Records())
	want := float64(seen) / 10
	if math.Abs(float64(got)-want) > want*0.02+2 {
		t.Errorf("sampled %d of %d, want ≈%0.f", got, seen, want)
	}
}

func TestScannerTeams(t *testing.T) {
	cfg := smallConfig()
	cfg.Teams = 1 // every scan campaign founds a team
	cfg.ClassPopulation = [activity.NumClasses]int{}
	cfg.ClassPopulation[activity.Scan] = 5
	w := New(cfg)
	w.Run()
	teams := make(map[int][]ipaddr.Addr)
	for a, tr := range w.TruthMap() {
		if tr.Team != 0 {
			teams[tr.Team] = append(teams[tr.Team], a)
		}
	}
	if len(teams) == 0 {
		t.Fatal("no teams formed")
	}
	for id, members := range teams {
		if len(members) < 2 {
			continue
		}
		s24 := members[0].Slash24()
		port := w.TruthMap()[members[0]].Port
		for _, m := range members[1:] {
			if m.Slash24() != s24 {
				t.Errorf("team %d spans /24s", id)
			}
			if w.TruthMap()[m].Port != port {
				t.Errorf("team %d mixes ports", id)
			}
		}
	}
}

func TestBurstIncreasesScanners(t *testing.T) {
	base := smallConfig()
	base.Duration = simtime.Days(3)
	base.ClassPopulation = [activity.NumClasses]int{}
	base.ClassPopulation[activity.Scan] = 10
	base.Teams = 0

	burst := base
	burst.Bursts = []Burst{{
		Class:    activity.Scan,
		Port:     "tcp443",
		Start:    base.Start.Add(simtime.Day),
		Duration: simtime.Days(2),
		Extra:    15,
	}}

	w1, w2 := New(base), New(burst)
	w1.Run()
	w2.Run()
	count := func(w *World) int {
		n := 0
		for _, tr := range w.TruthMap() {
			if tr.Class == activity.Scan {
				n++
			}
		}
		return n
	}
	if count(w2) < count(w1)+10 {
		t.Errorf("burst world has %d scanners vs %d baseline", count(w2), count(w1))
	}
	tcp443 := 0
	for _, tr := range w2.TruthMap() {
		if tr.Port == "tcp443" {
			tcp443++
		}
	}
	if tcp443 < 10 {
		t.Errorf("only %d tcp443 scanners after burst", tcp443)
	}
}

func TestUpdateOriginatorsAreJP(t *testing.T) {
	cfg := smallConfig()
	cfg.ClassPopulation = [activity.NumClasses]int{}
	cfg.ClassPopulation[activity.Update] = 5
	w := New(cfg)
	w.Run()
	for a, tr := range w.TruthMap() {
		if tr.Class == activity.Update && w.Geo.Country(a) != "jp" {
			t.Errorf("update originator %v in %q", a, w.Geo.Country(a))
		}
	}
}

func TestControlledScanGrowsWithSize(t *testing.T) {
	origin := ipaddr.MustParse("198.51.100.77")
	at := simtime.Date(2015, 1, 10, 0, 0)
	var prev int
	fracs := []float64{0.00001, 0.0001, 0.001}
	for _, f := range fracs {
		cfg := smallConfig()
		cfg.ClassPopulation = [activity.NumClasses]int{} // quiet world
		cfg.Start = at
		cfg.Duration = simtime.Days(30) // sensor window covers the scan
		res, err := New(cfg).ControlledScan(origin, f, 0.002, at)
		if err != nil {
			t.Fatal(err)
		}
		if res.FinalQueriers < prev {
			t.Errorf("frac %v: final queriers %d below smaller scan's %d", f, res.FinalQueriers, prev)
		}
		if res.FinalQueriers > 0 && res.RootQueriers > res.FinalQueriers {
			t.Errorf("frac %v: root queriers %d exceed final %d", f, res.RootQueriers, res.FinalQueriers)
		}
		prev = res.FinalQueriers
	}
	if prev == 0 {
		t.Error("largest controlled scan saw no queriers at the final authority")
	}
}

func TestControlledScanSublinear(t *testing.T) {
	origin := ipaddr.MustParse("198.51.100.77")
	at := simtime.Date(2015, 1, 10, 0, 0)
	run := func(frac float64) ScanResult {
		cfg := smallConfig()
		cfg.ClassPopulation = [activity.NumClasses]int{}
		cfg.Start = at
		cfg.Duration = simtime.Days(30)
		res, err := New(cfg).ControlledScan(origin, frac, 0.002, at)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	small := run(0.0001)
	big := run(0.01) // 100x more targets
	if small.FinalQueriers == 0 || big.FinalQueriers == 0 {
		t.Skip("scan too small for this seed")
	}
	growth := float64(big.FinalQueriers) / float64(small.FinalQueriers)
	// Pure linear growth would be 100x; Zipf sharing must compress it.
	if growth > 70 {
		t.Errorf("querier growth %.1fx for 100x targets: not sublinear", growth)
	}
	if growth < 3 {
		t.Errorf("querier growth %.1fx for 100x targets: implausibly flat", growth)
	}
}

func TestValidateAllCampaigns(t *testing.T) {
	w := New(smallConfig())
	w.Run()
	for _, c := range w.Campaigns {
		if err := c.Validate(); err != nil {
			t.Fatalf("world produced invalid campaign: %v", err)
		}
	}
}

func BenchmarkRunDay(b *testing.B) {
	for i := 0; i < b.N; i++ {
		w := New(smallConfig())
		w.Run()
	}
}

func TestDarknetSeesScanners(t *testing.T) {
	cfg := smallConfig()
	cfg.DarknetSlash8 = 150
	cfg.ClassPopulation = [activity.NumClasses]int{}
	cfg.ClassPopulation[activity.Scan] = 8
	cfg.ClassPopulation[activity.Mail] = 8
	w := New(cfg)
	w.Run()
	if w.Dark == nil {
		t.Fatal("darknet not constructed")
	}
	scanHits, mailHits := 0, 0
	for a, tr := range w.TruthMap() {
		switch tr.Class {
		case activity.Scan:
			scanHits += w.Dark.Hits(a)
		case activity.Mail:
			mailHits += w.Dark.Hits(a)
		}
	}
	if scanHits == 0 {
		t.Error("darknet saw no scanner probes")
	}
	if mailHits > scanHits/10 {
		t.Errorf("darknet mail hits %d rival scan hits %d", mailHits, scanHits)
	}
}

// TestControlledScanAfterRun: Run drops the resolvers a scan walks, so a
// scan on a run world is an error, not a nil dereference.
func TestControlledScanAfterRun(t *testing.T) {
	w := New(smallConfig())
	w.Run()
	if w.hier != nil || w.mixes != nil || w.pool.byKey != nil {
		t.Fatal("Run kept the simulator")
	}
	res, err := w.ControlledScan(ipaddr.MustParse("198.51.100.77"), 0.0001, 0.002, w.Cfg.Start)
	if err == nil {
		t.Fatalf("ControlledScan on a run world returned %+v and no error", res)
	}
}
