package activity

import (
	"math"
	"testing"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

func uniformPick(global bool, home string, st *rng.Stream) ipaddr.Addr {
	return ipaddr.Addr(st.Uint64())
}

func testCampaign() *Campaign {
	c := &Campaign{
		Originator:     ipaddr.MustParse("1.2.3.4"),
		Class:          Scan,
		Start:          0,
		End:            simtime.Time(simtime.Days(2)),
		TouchesPerHour: 120,
		RepeatProb:     0.3,
		GlobalBias:     1,
	}
	c.seed = 99
	return c
}

func TestClassNames(t *testing.T) {
	if Scan.String() != "scan" || AdTracker.String() != "ad-tracker" {
		t.Error("class names wrong")
	}
	if Class(-1).String() != "invalid" || NumClasses.String() != "invalid" {
		t.Error("invalid class must stringify as invalid")
	}
	for c := Class(0); c < NumClasses; c++ {
		got, ok := ParseClass(c.String())
		if !ok || got != c {
			t.Errorf("ParseClass(%q) = %v, %v", c.String(), got, ok)
		}
	}
	if _, ok := ParseClass("nope"); ok {
		t.Error("ParseClass accepted junk")
	}
}

func TestMalicious(t *testing.T) {
	for c := Class(0); c < NumClasses; c++ {
		want := c == Spam || c == Scan
		if c.Malicious() != want {
			t.Errorf("%v.Malicious() = %v", c, c.Malicious())
		}
	}
}

func TestEventsDeterministic(t *testing.T) {
	a, b := testCampaign(), testCampaign()
	ea := a.EventsIn(0, simtime.Time(simtime.Hours(6)), uniformPick, nil)
	eb := b.EventsIn(0, simtime.Time(simtime.Hours(6)), uniformPick, nil)
	if len(ea) != len(eb) {
		t.Fatalf("event counts differ: %d vs %d", len(ea), len(eb))
	}
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("event %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

func TestEventRateMatchesMean(t *testing.T) {
	c := testCampaign()
	events := c.EventsIn(0, simtime.Time(simtime.Day), uniformPick, nil)
	want := 120.0 * 24
	got := float64(len(events))
	if math.Abs(got-want)/want > 0.15 {
		t.Errorf("events in a day = %v, want ≈%v", got, want)
	}
}

func TestEventsRespectInterval(t *testing.T) {
	c := testCampaign()
	t0, t1 := simtime.Time(3000), simtime.Time(9000)
	for _, e := range c.EventsIn(t0, t1, uniformPick, nil) {
		if e.Time.Before(t0) || !e.Time.Before(t1) {
			t.Fatalf("event at %v outside [%v, %v)", e.Time, t0, t1)
		}
	}
}

func TestEventsRespectCampaignSpan(t *testing.T) {
	c := testCampaign()
	c.Start, c.End = 5000, 20000
	for _, e := range c.EventsIn(0, simtime.Time(simtime.Day), uniformPick, nil) {
		if e.Time.Before(c.Start) || !e.Time.Before(c.End) {
			t.Fatalf("event at %v outside campaign [%v, %v)", e.Time, c.Start, c.End)
		}
	}
	if n := len(c.EventsIn(30000, 40000, uniformPick, nil)); n != 0 {
		t.Errorf("%d events after campaign end", n)
	}
}

// TestSplitIntervalsReproduce checks slot alignment: generating [0,T) in one
// call equals generating it day by day. Repeat-target state differs across
// split points, so compare times only — the schedule is slot-deterministic.
func TestSplitIntervalsReproduce(t *testing.T) {
	whole := testCampaign()
	all := whole.EventsIn(0, simtime.Time(simtime.Days(2)), uniformPick, nil)

	split := testCampaign()
	var parts []Event
	for d := 0; d < 2; d++ {
		parts = split.EventsIn(simtime.Time(simtime.Days(d)), simtime.Time(simtime.Days(d+1)), uniformPick, parts)
	}
	if len(all) != len(parts) {
		t.Fatalf("whole=%d split=%d events", len(all), len(parts))
	}
	for i := range all {
		if all[i].Time != parts[i].Time {
			t.Fatalf("event %d time differs: %v vs %v", i, all[i].Time, parts[i].Time)
		}
	}
}

func TestRepeatTouchesReuseTargets(t *testing.T) {
	c := testCampaign()
	c.RepeatProb = 0.9
	events := c.EventsIn(0, simtime.Time(simtime.Hours(12)), uniformPick, nil)
	uniq := make(map[ipaddr.Addr]struct{})
	for _, e := range events {
		uniq[e.Target] = struct{}{}
	}
	// With 90% repeats, unique targets must be a small fraction of events.
	if len(events) == 0 || float64(len(uniq))/float64(len(events)) > 0.3 {
		t.Errorf("uniq/events = %d/%d, want strong reuse", len(uniq), len(events))
	}

	c2 := testCampaign()
	c2.RepeatProb = 0
	events2 := c2.EventsIn(0, simtime.Time(simtime.Hours(12)), uniformPick, nil)
	uniq2 := make(map[ipaddr.Addr]struct{})
	for _, e := range events2 {
		uniq2[e.Target] = struct{}{}
	}
	if float64(len(uniq2))/float64(len(events2)) < 0.99 {
		t.Errorf("no-repeat campaign reused targets: %d/%d", len(uniq2), len(events2))
	}
}

func TestDiurnalModulation(t *testing.T) {
	c := testCampaign()
	c.Diurnal = 0.9
	c.PeakHour = 12
	peak := c.EventsIn(simtime.Time(simtime.Hours(11)), simtime.Time(simtime.Hours(13)), uniformPick, nil)
	c2 := testCampaign()
	c2.Diurnal = 0.9
	c2.PeakHour = 12
	trough := c2.EventsIn(simtime.Time(simtime.Hours(23)), simtime.Time(simtime.Hours(25)), uniformPick, nil)
	if len(peak) < 3*len(trough) {
		t.Errorf("peak=%d trough=%d, want strong diurnal contrast", len(peak), len(trough))
	}
}

func TestGlobalBiasRouting(t *testing.T) {
	var globals, locals int
	pick := func(global bool, home string, st *rng.Stream) ipaddr.Addr {
		if global {
			globals++
		} else {
			locals++
			if home != "jp" {
				t.Fatal("home country not passed through")
			}
		}
		return ipaddr.Addr(st.Uint64())
	}
	c := testCampaign()
	c.GlobalBias = 0.2
	c.RepeatProb = 0
	c.HomeCountry = "jp"
	c.EventsIn(0, simtime.Time(simtime.Day), pick, nil)
	frac := float64(globals) / float64(globals+locals)
	if math.Abs(frac-0.2) > 0.05 {
		t.Errorf("global fraction = %v, want ≈0.2", frac)
	}
}

// TestActiveAtAndOverlaps pins the half-open [Start, End) activity span
// at Overlaps' boundaries.
func TestActiveAtAndOverlaps(t *testing.T) {
	c := testCampaign()
	c.Start, c.End = 100, 200
	if !c.Overlaps(150, 300) || !c.Overlaps(0, 101) || c.Overlaps(200, 300) || c.Overlaps(0, 100) {
		t.Error("Overlaps boundaries wrong")
	}
}

func TestValidate(t *testing.T) {
	good := testCampaign()
	if err := good.Validate(); err != nil {
		t.Errorf("valid campaign rejected: %v", err)
	}
	bad := []*Campaign{
		{Class: NumClasses, Start: 0, End: 1},
		{Class: Scan, Start: 10, End: 10},
		{Class: Scan, Start: 0, End: 1, TouchesPerHour: -1},
		{Class: Scan, Start: 0, End: 1, RepeatProb: 1.5},
	}
	for i, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("bad campaign %d accepted", i)
		}
	}
}

func TestNewCampaignFromTemplate(t *testing.T) {
	st := rng.New(5)
	for cls := Class(0); cls < NumClasses; cls++ {
		c := NewCampaign(cls, ipaddr.Addr(1000+uint32(cls)), 0, "jp", st)
		if err := c.Validate(); err != nil {
			t.Errorf("template campaign for %v invalid: %v", cls, err)
		}
		if cls == Scan && c.Port == "" {
			t.Error("scan campaign missing port label")
		}
		if cls != Scan && c.Port != "" {
			t.Errorf("%v campaign has port %q", cls, c.Port)
		}
		if c.TouchesPerHour > 5000 {
			t.Error("touch rate cap not applied")
		}
	}
}

func TestNewCampaignLifetimesByMalice(t *testing.T) {
	st := rng.New(6)
	mean := func(cls Class) float64 {
		var sum float64
		const n = 400
		for i := 0; i < n; i++ {
			c := NewCampaign(cls, ipaddr.Addr(uint32(i)), 0, "jp", st)
			sum += float64(c.End.Sub(c.Start))
		}
		return sum / n
	}
	if spam, cdn := mean(Spam), mean(CDN); spam >= cdn/3 {
		t.Errorf("spam mean lifetime %v not far below cdn %v", spam, cdn)
	}
}

func TestPoissonMoments(t *testing.T) {
	st := rng.New(8)
	for _, lambda := range []float64{0.5, 3, 12, 80} {
		const n = 20000
		var sum float64
		for i := 0; i < n; i++ {
			sum += float64(poisson(st, lambda))
		}
		mean := sum / n
		if math.Abs(mean-lambda)/lambda > 0.05 {
			t.Errorf("poisson(%v) mean = %v", lambda, mean)
		}
	}
	if poisson(st, 0) != 0 || poisson(st, -1) != 0 {
		t.Error("nonpositive lambda must yield 0")
	}
}

func BenchmarkEventsDay(b *testing.B) {
	c := testCampaign()
	var buf []Event
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = c.EventsIn(0, simtime.Time(simtime.Day), uniformPick, buf[:0])
	}
}
