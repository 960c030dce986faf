package groundtruth

import (
	"testing"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/darknet"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
)

func buildTruth() map[ipaddr.Addr]activity.Class {
	truth := make(map[ipaddr.Addr]activity.Class)
	id := uint32(1)
	add := func(cls activity.Class, n int) {
		for i := 0; i < n; i++ {
			truth[ipaddr.Addr(id*2654435761)] = cls
			id++
		}
	}
	add(activity.Spam, 80)
	add(activity.Scan, 60)
	add(activity.Mail, 50)
	add(activity.CDN, 30)
	add(activity.AdTracker, 10)
	return truth
}

func rankedOf(truth map[ipaddr.Addr]activity.Class) []ipaddr.Addr {
	out := make([]ipaddr.Addr, 0, len(truth))
	for a := range truth {
		out = append(out, a)
	}
	sortAddrs(out)
	return out
}

func TestOracleEvidenceShape(t *testing.T) {
	truth := buildTruth()
	o := NewOracle(truth, nil, 42)
	var spamListed, scanListed, benignListed, spamTotal, scanTotal, benignTotal int
	for a, cls := range truth {
		e := o.Evidence(a)
		switch cls {
		case activity.Spam:
			spamTotal++
			if e.SpamLists > 0 {
				spamListed++
			}
		case activity.Scan:
			scanTotal++
			if e.OtherLists > 0 {
				scanListed++
			}
		default:
			benignTotal++
			if e.SpamLists > 0 || e.OtherLists > 0 {
				benignListed++
			}
		}
	}
	if frac := float64(spamListed) / float64(spamTotal); frac < 0.7 {
		t.Errorf("spam blacklist coverage = %v, want ≈0.85", frac)
	}
	if frac := float64(scanListed) / float64(scanTotal); frac < 0.3 || frac > 0.75 {
		t.Errorf("scan blacklist coverage = %v, want ≈0.5", frac)
	}
	if frac := float64(benignListed) / float64(benignTotal); frac > 0.12 {
		t.Errorf("benign false-positive rate = %v, want ≈0.02", frac)
	}
}

func TestOracleDeterministic(t *testing.T) {
	truth := buildTruth()
	a := NewOracle(truth, nil, 42)
	b := NewOracle(truth, nil, 42)
	for addr := range truth {
		if a.Evidence(addr) != b.Evidence(addr) {
			t.Fatalf("evidence differs for %v", addr)
		}
	}
}

func TestOracleDarknetIntegration(t *testing.T) {
	truth := buildTruth()
	dark := darknet.NewPaperDarknets(150)
	var scanner ipaddr.Addr
	for a, c := range truth {
		if c == activity.Scan {
			scanner = a
			break
		}
	}
	dark.ObserveThinned(scanner, 5e7, rng.New(1))
	o := NewOracle(truth, dark, 42)
	if o.Evidence(scanner).DarknetHits == 0 {
		t.Error("darknet hits not surfaced in evidence")
	}
}

func TestCurateBasics(t *testing.T) {
	truth := buildTruth()
	o := NewOracle(truth, nil, 42)
	ranked := rankedOf(truth)
	cfg := DefaultCuration()
	set := curate(ranked, o, cfg.MaxPerClass, CandidateLimit, 0, rng.New(7))
	if set.Total() == 0 {
		t.Fatal("empty labeled set")
	}
	counts := set.Counts()
	if counts[activity.Spam] != cfg.MaxPerClass {
		t.Errorf("spam labels = %d, want capped at %d", counts[activity.Spam], cfg.MaxPerClass)
	}
	if counts[activity.AdTracker] != 10 {
		t.Errorf("ad-tracker labels = %d, want all 10", counts[activity.AdTracker])
	}
	// Zero-noise curation is perfectly correct.
	for a, label := range set.Labels {
		if truth[a] != label {
			t.Fatalf("noiseless curation mislabeled %v", a)
		}
	}
}

func TestCurateNoise(t *testing.T) {
	truth := buildTruth()
	o := NewOracle(truth, nil, 42)
	set := curate(rankedOf(truth), o, 1000, CandidateLimit, 0.5, rng.New(7))
	wrong := 0
	for a, label := range set.Labels {
		if truth[a] != label {
			wrong++
		}
	}
	frac := float64(wrong) / float64(set.Total())
	if frac < 0.3 || frac > 0.7 {
		t.Errorf("noise rate = %v, want ≈0.5", frac)
	}
}

func TestCurateCandidateLimit(t *testing.T) {
	truth := buildTruth()
	o := NewOracle(truth, nil, 42)
	ranked := rankedOf(truth)
	set := curate(ranked, o, 64, 5, LabelNoise, rng.New(7))
	if set.Total() > 5 {
		t.Errorf("curated %d labels beyond the candidate limit", set.Total())
	}
}

func TestCurateSkipsUnknown(t *testing.T) {
	truth := buildTruth()
	o := NewOracle(truth, nil, 42)
	ranked := append([]ipaddr.Addr{ipaddr.MustParse("203.0.113.99")}, rankedOf(truth)...)
	set := Curate(ranked, o, DefaultCuration(), rng.New(7))
	if _, ok := set.Labels[ipaddr.MustParse("203.0.113.99")]; ok {
		t.Error("unverifiable candidate labeled")
	}
}

func TestMergeAndPruneAndClone(t *testing.T) {
	a := &LabeledSet{Labels: map[ipaddr.Addr]activity.Class{1: activity.Spam, 2: activity.Mail}}
	b := &LabeledSet{Labels: map[ipaddr.Addr]activity.Class{2: activity.Scan, 3: activity.CDN}}
	c := a.Clone()
	a.Merge(b)
	if a.Labels[2] != activity.Scan || a.Total() != 3 {
		t.Errorf("merge wrong: %v", a.Labels)
	}
	if c.Total() != 2 || c.Labels[2] != activity.Mail {
		t.Error("clone shares state with original")
	}
	dropped := a.Prune(func(x ipaddr.Addr) bool { return x != 1 })
	if dropped != 1 || a.Total() != 2 {
		t.Errorf("prune dropped %d, left %d", dropped, a.Total())
	}
}
