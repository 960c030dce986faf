// Package activity models network-wide activity: originator campaigns for
// the twelve application classes of §III-D, generating the touch events
// that become DNS backscatter.
//
// A Campaign is one originator carrying out one class of activity over a
// time span. Iterating a campaign over an interval yields (time, target)
// touch events drawn deterministically from the campaign's own stream:
// spam runs touch many mail servers, scans walk address space, CDNs are
// touched by geographically biased client populations, and so on. The
// event stream reproduces the behavioral contrasts the paper's features
// rely on — repeat-touch rates (queries per querier), geographic bias
// (global/local entropy), and diurnal shape (Appendix C).
package activity

import (
	"fmt"
	"math"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

// Class is an application class from §III-D.
type Class int

// The twelve classes, in the paper's order.
const (
	AdTracker Class = iota
	CDN
	Cloud
	Crawler
	DNSServer
	Mail
	NTP
	P2P
	Push
	Scan
	Spam
	Update
	NumClasses
)

var classNames = [NumClasses]string{
	"ad-tracker", "cdn", "cloud", "crawler", "dns", "mail",
	"ntp", "p2p", "push", "scan", "spam", "update",
}

// String returns the paper's class label.
func (c Class) String() string {
	if c < 0 || c >= NumClasses {
		return "invalid"
	}
	return classNames[c]
}

// ParseClass maps a label back to its Class.
func ParseClass(s string) (Class, bool) {
	for i, n := range classNames {
		if n == s {
			return Class(i), true
		}
	}
	return 0, false
}

// Malicious reports whether the class is adversarial (spam, scan). The
// paper's churn analysis (§V-A) splits on exactly this.
func (c Class) Malicious() bool { return c == Spam || c == Scan }

// Template is the per-class behavioral prior from which campaigns are
// instantiated. Values are tuned to reproduce the case-study contrasts of
// Figure 3 / Table II, not fitted to any proprietary data.
type Template struct {
	// TouchesPerHourMin and Alpha parameterize the Pareto draw of a
	// campaign's touch rate; heavy tails give Figure 9's footprints.
	TouchesPerHourMin float64
	TouchesAlpha      float64
	// RepeatProb is the chance a touch revisits a previous target,
	// raising queries-per-querier (spam retries, scan re-probes).
	RepeatProb float64
	// RepeatPool is how many recent targets revisits draw from; smaller
	// pools hammer fewer hosts harder (scanners re-probing responsive
	// targets). 0 defaults to 512.
	RepeatPool int
	// GlobalBias is the chance a target is drawn globally rather than
	// from the campaign's home country (CDN/mail are regional).
	GlobalBias float64
	// Diurnal is the amplitude of time-of-day modulation in [0, 1].
	Diurnal float64
	// PeakHour is the UTC hour of peak activity when Diurnal > 0.
	PeakHour float64
	// MeanLifetime is the expected campaign duration; malicious classes
	// are short-lived (§V-A: 50% gone within a month) while benign ones
	// persist for many months.
	MeanLifetime simtime.Duration
}

// Templates holds the default per-class priors.
var Templates = [NumClasses]Template{
	AdTracker: {TouchesPerHourMin: 60, TouchesAlpha: 1.1, RepeatProb: 0.35, RepeatPool: 192, GlobalBias: 0.35, Diurnal: 0.7, PeakHour: 13, MeanLifetime: 300 * simtime.Day},
	CDN:       {TouchesPerHourMin: 40, TouchesAlpha: 1.2, RepeatProb: 0.55, RepeatPool: 256, GlobalBias: 0.15, Diurnal: 0.7, PeakHour: 12, MeanLifetime: 240 * simtime.Day},
	Cloud:     {TouchesPerHourMin: 30, TouchesAlpha: 1.2, RepeatProb: 0.45, GlobalBias: 0.5, Diurnal: 0.5, PeakHour: 14, MeanLifetime: 400 * simtime.Day},
	Crawler:   {TouchesPerHourMin: 8, TouchesAlpha: 1.4, RepeatProb: 0.3, GlobalBias: 0.8, Diurnal: 0.1, PeakHour: 0, MeanLifetime: 350 * simtime.Day},
	DNSServer: {TouchesPerHourMin: 25, TouchesAlpha: 1.3, RepeatProb: 0.5, GlobalBias: 0.6, Diurnal: 0.3, PeakHour: 12, MeanLifetime: 500 * simtime.Day},
	Mail:      {TouchesPerHourMin: 20, TouchesAlpha: 1.25, RepeatProb: 0.25, GlobalBias: 0.25, Diurnal: 0.8, PeakHour: 9, MeanLifetime: 300 * simtime.Day},
	NTP:       {TouchesPerHourMin: 15, TouchesAlpha: 1.3, RepeatProb: 0.5, GlobalBias: 0.55, Diurnal: 0.2, PeakHour: 12, MeanLifetime: 450 * simtime.Day},
	P2P:       {TouchesPerHourMin: 12, TouchesAlpha: 1.2, RepeatProb: 0.3, GlobalBias: 0.6, Diurnal: 0.4, PeakHour: 20, MeanLifetime: 60 * simtime.Day},
	Push:      {TouchesPerHourMin: 25, TouchesAlpha: 1.25, RepeatProb: 0.45, GlobalBias: 0.45, Diurnal: 0.6, PeakHour: 18, MeanLifetime: 350 * simtime.Day},
	Scan:      {TouchesPerHourMin: 30, TouchesAlpha: 1.05, RepeatProb: 0.65, RepeatPool: 32, GlobalBias: 0.95, Diurnal: 0.1, PeakHour: 0, MeanLifetime: 45 * simtime.Day},
	Spam:      {TouchesPerHourMin: 35, TouchesAlpha: 1.1, RepeatProb: 0.45, RepeatPool: 96, GlobalBias: 0.55, Diurnal: 0.15, PeakHour: 0, MeanLifetime: 25 * simtime.Day},
	Update:    {TouchesPerHourMin: 20, TouchesAlpha: 1.3, RepeatProb: 0.5, GlobalBias: 0.2, Diurnal: 0.6, PeakHour: 10, MeanLifetime: 400 * simtime.Day},
}

// Campaign is one originator's activity.
type Campaign struct {
	Originator ipaddr.Addr
	Class      Class
	Start, End simtime.Time
	// TouchesPerHour is the mean reaction-producing touch rate.
	TouchesPerHour float64
	RepeatProb     float64
	GlobalBias     float64
	Diurnal        float64
	PeakHour       float64
	// RepeatPool bounds the recent-target ring (0 = 512).
	RepeatPool int
	// HomeCountry biases non-global target draws.
	HomeCountry string
	// Port labels scan campaigns ("tcp22", "tcp80", "tcp443", "multi");
	// empty for other classes.
	Port string
	// Team groups coordinated scanners sharing a /24 (§VI-B); 0 = none.
	Team int

	seed    uint64
	recent  []ipaddr.Addr // ring of recent targets for repeat touches
	recentN int
}

// Overlaps reports whether the campaign is active anywhere in [t0, t1).
func (c *Campaign) Overlaps(t0, t1 simtime.Time) bool {
	return c.Start.Before(t1) && t0.Before(c.End)
}

// rate returns the diurnally modulated touch rate at t, in touches/hour.
func (c *Campaign) rate(t simtime.Time) float64 {
	r := c.TouchesPerHour
	if c.Diurnal > 0 {
		phase := 2 * math.Pi * (t.HourOfDay() - c.PeakHour) / 24
		r *= 1 + c.Diurnal*math.Cos(phase)
	}
	if r < 0 {
		r = 0
	}
	return r
}

// TargetFunc draws target addresses. world wires this to the geo registry;
// tests may substitute simpler pickers.
type TargetFunc func(global bool, homeCountry string, st *rng.Stream) ipaddr.Addr

// Event is one touch of one target.
type Event struct {
	Time   simtime.Time
	Target ipaddr.Addr
}

// slot is the event-generation granularity.
const slot = 10 * simtime.Minute

// EventsIn appends the campaign's touch events within [t0, t1) to dst,
// drawing targets via pick. Event generation is slot-quantized: each
// 10-minute slot gets a Poisson count at the modulated rate, with event
// times spread uniformly inside the slot. The same campaign, seed, and
// interval always produce identical events.
func (c *Campaign) EventsIn(t0, t1 simtime.Time, pick TargetFunc, dst []Event) []Event {
	if t1.Before(c.Start) || !c.End.After(t0) {
		return dst
	}
	if t0.Before(c.Start) {
		t0 = c.Start
	}
	if c.End.Before(t1) {
		t1 = c.End
	}
	// Align to slot boundaries so interval splits reproduce identically.
	first := int64(t0) / int64(slot)
	last := (int64(t1) + int64(slot) - 1) / int64(slot)
	for si := first; si < last; si++ {
		slotStart := simtime.Time(si * int64(slot))
		st := rng.New(hashSeed(c.seed, uint64(si)))
		lambda := c.rate(slotStart) / 6 // touches per 10 minutes
		n := poisson(st, lambda)
		for e := 0; e < n; e++ {
			t := slotStart.Add(simtime.Duration(st.Intn(int(slot))))
			if t.Before(t0) || !t.Before(t1) {
				continue
			}
			dst = append(dst, Event{Time: t, Target: c.nextTarget(st, pick)})
		}
	}
	return dst
}

// nextTarget draws a fresh target or revisits a recent one.
func (c *Campaign) nextTarget(st *rng.Stream, pick TargetFunc) ipaddr.Addr {
	if len(c.recent) > 0 && st.Bool(c.RepeatProb) {
		return c.recent[st.Intn(len(c.recent))]
	}
	t := pick(st.Bool(c.GlobalBias), c.HomeCountry, st)
	ring := c.RepeatPool
	if ring <= 0 {
		ring = 512
	}
	if len(c.recent) < ring {
		c.recent = append(c.recent, t)
	} else {
		c.recent[c.recentN%ring] = t
		c.recentN++
	}
	return t
}

func hashSeed(a, b uint64) uint64 {
	z := a ^ (b+0x9e3779b97f4a7c15)*0xbf58476d1ce4e5b9
	z = (z ^ (z >> 30)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// poisson draws a Poisson(lambda) variate. Knuth's method below λ=30, a
// rounded normal approximation above (simulation-grade accuracy).
func poisson(st *rng.Stream, lambda float64) int {
	if lambda <= 0 {
		return 0
	}
	if lambda > 30 {
		n := int(math.Round(lambda + math.Sqrt(lambda)*st.NormFloat64()))
		if n < 0 {
			return 0
		}
		return n
	}
	l := math.Exp(-lambda)
	k, p := 0, 1.0
	for {
		p *= st.Float64()
		if p <= l {
			return k
		}
		k++
	}
}

// Validate checks a campaign for internal consistency.
func (c *Campaign) Validate() error {
	if c.Class < 0 || c.Class >= NumClasses {
		return fmt.Errorf("activity: invalid class %d", int(c.Class))
	}
	if !c.Start.Before(c.End) {
		return fmt.Errorf("activity: campaign %v ends (%v) before it starts (%v)", c.Originator, c.End, c.Start)
	}
	if c.TouchesPerHour < 0 {
		return fmt.Errorf("activity: negative touch rate %f", c.TouchesPerHour)
	}
	if c.RepeatProb < 0 || c.RepeatProb > 1 || c.GlobalBias < 0 || c.GlobalBias > 1 || c.Diurnal < 0 || c.Diurnal > 1 {
		return fmt.Errorf("activity: probability parameter out of [0,1]")
	}
	return nil
}

// NewCampaign instantiates a campaign from the class template, drawing the
// rate and lifetime from the template's distributions via st.
func NewCampaign(cls Class, orig ipaddr.Addr, start simtime.Time, home string, st *rng.Stream) *Campaign {
	tpl := Templates[cls]
	life := simtime.Duration(float64(tpl.MeanLifetime) * st.ExpFloat64())
	if life < simtime.Day {
		life = simtime.Day
	}
	// Per-campaign jitter keeps classes from being trivially separable:
	// real mailing lists, scanners, and CDNs vary widely inside a class.
	jitter := func(base, spread float64) float64 {
		v := base + spread*st.NormFloat64()
		if v < 0 {
			return 0
		}
		if v > 1 {
			return 1
		}
		return v
	}
	c := &Campaign{
		Originator: orig,
		Class:      cls,
		Start:      start,
		End:        start.Add(life),
		// The Pareto draw gives the heavy upper tail; the log-uniform
		// damping spreads campaigns across an order of magnitude below
		// it, populating the small-footprint mass of Figure 9.
		TouchesPerHour: st.Pareto(tpl.TouchesPerHourMin, tpl.TouchesAlpha) * math.Pow(10, -st.Float64()),
		RepeatProb:     jitter(tpl.RepeatProb, 0.15),
		RepeatPool:     tpl.RepeatPool,
		GlobalBias:     jitter(tpl.GlobalBias, 0.15),
		Diurnal:        jitter(tpl.Diurnal, 0.15),
		PeakHour:       tpl.PeakHour + 2*st.NormFloat64(),
		HomeCountry:    home,
		seed:           st.Uint64(),
	}
	// Cap pathological Pareto draws: a single campaign should not
	// dominate a whole dataset's event budget.
	if c.TouchesPerHour > 5000 {
		c.TouchesPerHour = 5000
	}
	if cls == Scan {
		ports := []string{"tcp22", "tcp80", "tcp443", "tcp23", "udp53", "icmp", "multi"}
		c.Port = ports[st.Intn(len(ports))]
	}
	return c
}
