// Package faults implements deterministic fault injection for the DNS
// path: seeded schedules of packet loss, added latency, response
// truncation (TC → TCP fallback), SERVFAIL bursts, and dead or flapping
// authorities.
//
// The paper's sensor lives on the messy real Internet: §IV-D attributes
// query attenuation not only to caching but to timeouts and middleboxes
// that "do not follow DNS timeout rules", and the backscatter literature
// (Fachkha et al., PAPERS.md) ingests actively lossy, hostile traffic.
// This package lets the reproduction degrade the polite simulated network
// the same way — without giving up the repository's determinism bar.
//
// Every decision is a pure function of (plan seed, fault kind, subject,
// instant): there is no stateful RNG stream, so the schedule is identical
// regardless of evaluation order, worker count, or which subset of
// decisions a run actually consults. Two runs with the same profile and
// seed therefore replay byte-identical failure storms, and a parallel
// pipeline built over a faulted world stays byte-identical to the
// sequential one.
package faults

import (
	"fmt"
	"strconv"
	"strings"
	"sync/atomic"

	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
)

// Kind enumerates the injectable fault kinds.
type Kind int

// The fault kinds, in faults_injected_total{kind=...} label order.
const (
	Loss     Kind = iota // query datagram lost in flight
	Latency              // answer delayed by injected latency
	Truncate             // UDP answer truncated (TC), forcing TCP fallback
	ServFail             // authority answers SERVFAIL
	Dead                 // authority dark for a whole flap epoch
	numKinds
)

// kindNames orders the label values of faults_injected_total.
var kindNames = [numKinds]string{"loss", "latency", "truncate", "servfail", "dead"}

// String returns the kind's metric label value.
func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return "unknown"
	}
	return kindNames[k]
}

// Profile parameterizes one failure regime. The zero Profile injects
// nothing. Probabilities are per decision point: Loss per query attempt,
// ServFail per arriving query, Truncate per clean UDP answer, Dead per
// (authority zone, flap epoch).
type Profile struct {
	// Name identifies the profile in Parse specs and Plan.String.
	Name string

	// Loss is the probability one query datagram is dropped in flight
	// and never reaches the authority.
	Loss float64

	// LatencyProb is the probability an answered query is served slowly;
	// LatencyMax bounds the injected extra delay (uniform in
	// [1, LatencyMax] simulated seconds).
	LatencyProb float64
	// LatencyMax bounds injected latency; see LatencyProb.
	LatencyMax simtime.Duration

	// Truncate is the probability a clean UDP answer comes back with TC
	// set, forcing the querier to re-ask over TCP.
	Truncate float64

	// ServFail is the baseline probability an authority answers
	// SERVFAIL; ServFailBurst replaces it while a burst window is
	// active. Bursts repeat every BurstPeriod and cover its first
	// BurstFrac fraction, so storms are periodic and replayable.
	ServFail float64
	// ServFailBurst is the in-burst SERVFAIL probability; see ServFail.
	ServFailBurst float64
	// BurstPeriod is the SERVFAIL burst cycle length; see ServFail.
	BurstPeriod simtime.Duration
	// BurstFrac is the active fraction of each burst cycle; see ServFail.
	BurstFrac float64

	// Dead is the probability an authority is dark (answers nothing) for
	// one whole flap epoch of length FlapPeriod — the dead and flapping
	// servers behind the "F" rows of Tables VII/VIII.
	Dead float64
	// FlapPeriod is the dead/flapping draw epoch (default 10 minutes).
	FlapPeriod simtime.Duration
}

// Profiles returns the built-in failure regimes, mildest first:
//
//   - none: no faults (the polite network of earlier PRs)
//   - lossy: 20% query loss plus slow authorities — the §IV-D regime of
//     timeouts and attenuation
//   - middlebox: truncation-heavy path with light loss, exercising the
//     TC → TCP fallback that middleboxes and small MTUs force
//   - servfail-storm: periodic bursts in which most queries SERVFAIL,
//     with a low background rate between bursts
//   - flaky-auth: authorities that go dark for whole epochs and flap back
//   - chaos: everything at once, for worst-case soak runs
func Profiles() []Profile {
	return []Profile{
		{Name: "none"},
		{
			Name:        "lossy",
			Loss:        0.20,
			LatencyProb: 0.30,
			LatencyMax:  3 * simtime.Second,
		},
		{
			Name:        "middlebox",
			Loss:        0.05,
			Truncate:    0.25,
			LatencyProb: 0.10,
			LatencyMax:  2 * simtime.Second,
		},
		{
			Name:          "servfail-storm",
			ServFail:      0.02,
			ServFailBurst: 0.60,
			BurstPeriod:   simtime.Hour,
			BurstFrac:     0.25,
		},
		{
			Name:       "flaky-auth",
			Dead:       0.15,
			FlapPeriod: 10 * simtime.Minute,
		},
		{
			Name:          "chaos",
			Loss:          0.15,
			LatencyProb:   0.20,
			LatencyMax:    3 * simtime.Second,
			Truncate:      0.10,
			ServFail:      0.02,
			ServFailBurst: 0.40,
			BurstPeriod:   simtime.Hour,
			BurstFrac:     0.20,
			Dead:          0.05,
			FlapPeriod:    10 * simtime.Minute,
		},
	}
}

// ProfileByName returns the built-in profile with the given name.
func ProfileByName(name string) (Profile, bool) {
	for _, p := range Profiles() {
		if p.Name == name {
			return p, true
		}
	}
	return Profile{}, false
}

// Parse builds a plan from a "profile" or "profile@seed" spec, e.g.
// "lossy@42". The bare form seeds with 1. "none" and "" return a nil
// plan, which injects nothing.
func Parse(spec string) (*Plan, error) {
	name, seedStr, hasSeed := strings.Cut(spec, "@")
	name = strings.TrimSpace(name)
	if name == "" || name == "none" {
		return nil, nil
	}
	p, ok := ProfileByName(name)
	if !ok {
		known := make([]string, 0, 8)
		for _, kp := range Profiles() {
			known = append(known, kp.Name)
		}
		return nil, fmt.Errorf("faults: unknown profile %q (have %s)", name, strings.Join(known, ", "))
	}
	seed := uint64(1)
	if hasSeed {
		v, err := strconv.ParseUint(strings.TrimSpace(seedStr), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("faults: bad seed in %q: %w", spec, err)
		}
		seed = v
	}
	return New(p, seed), nil
}

// Plan is an immutable seeded fault schedule. All decision methods are
// pure functions of the receiver and their arguments and are safe for
// concurrent use; a nil *Plan injects nothing, so callers hold an
// optional plan without guarding call sites.
type Plan struct {
	// Profile is the failure regime this plan schedules.
	Profile Profile
	// Seed keys every decision draw; same (Profile, Seed) = same storm.
	Seed uint64

	// m is atomic so SetMetrics can instrument a plan already published
	// to serving goroutines (bsserve installs faults before metrics).
	m atomic.Pointer[metrics]
}

// New returns the plan for one (profile, seed) pair, normalizing zero
// epoch parameters to their defaults.
func New(p Profile, seed uint64) *Plan {
	if p.FlapPeriod <= 0 {
		p.FlapPeriod = 10 * simtime.Minute
	}
	if p.BurstPeriod <= 0 {
		p.BurstPeriod = simtime.Hour
	}
	return &Plan{Profile: p, Seed: seed}
}

// String renders the plan as a parseable "profile@seed" spec.
func (p *Plan) String() string {
	if p == nil {
		return "none"
	}
	return fmt.Sprintf("%s@%d", p.Profile.Name, p.Seed)
}

// metrics holds the plan's pre-resolved counters. Nil receiver = plan
// uninstrumented; every method is then a no-op.
type metrics struct {
	injected [numKinds]*obs.Counter
}

// inject counts one injected fault of kind k at simulated time now, so
// an attached obs.Window can bucket fault storms into time series.
func (m *metrics) inject(k Kind, now simtime.Time) {
	if m != nil {
		m.injected[k].IncAt(now)
	}
}

// SetMetrics instruments the plan: every injected fault counts under
// faults_injected_total{kind=loss|latency|truncate|servfail|dead}. The
// resolver-side retry counters the faults induce
// (resolver_retries_total, resolver_gaveup_total,
// resolver_tcp_fallbacks_total) are pre-resolved here too, so a /metrics
// scrape shows the whole failure dashboard from the first snapshot even
// before the first retry fires. A nil registry uninstruments; calling on
// a nil plan is a no-op. The hook is swapped atomically, so SetMetrics
// is safe even while decision methods run — injections decided before
// the swap land on the old hook.
func (p *Plan) SetMetrics(reg *obs.Registry) {
	if p == nil {
		return
	}
	if reg == nil {
		p.m.Store(nil)
		return
	}
	m := &metrics{}
	for k := Kind(0); k < numKinds; k++ {
		m.injected[k] = reg.Counter("faults_injected_total", obs.L("kind", k.String()))
	}
	reg.Counter("resolver_retries_total")
	reg.Counter("resolver_gaveup_total")
	reg.Counter("resolver_tcp_fallbacks_total")
	p.m.Store(m)
}

// mix is one splitmix64 finalization round, the same mixer the rest of
// the simulator uses for deterministic side draws.
func mix(z uint64) uint64 {
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// KeyString hashes a string subject (an authority name, a question name,
// a peer's ip:port) into a decision key, FNV-1a like the rng package's
// stream naming. Text in a byte slice hashes as the same string would.
func KeyString[S ~string | ~[]byte](s S) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= prime64
	}
	return h
}

// draw produces the uniform [0, 1) variate for one decision point. The
// kind is folded in so the per-kind schedules are decorrelated even when
// their subjects coincide.
func (p *Plan) draw(k Kind, a, b, c, d uint64) float64 {
	h := mix(p.Seed ^ (uint64(k)+1)*0x9e3779b97f4a7c15)
	h = mix(h ^ a)
	h = mix(h ^ b)
	h = mix(h ^ c)
	h = mix(h ^ d)
	return float64(h>>11) / (1 << 53)
}

// Drop reports whether the attempt'th query datagram from resolver for
// subject at now is lost in flight. level discriminates hierarchy levels
// (or server sites) sharing a subject.
func (p *Plan) Drop(level int, resolver, subject uint64, now simtime.Time, attempt int) bool {
	if p == nil || p.Profile.Loss <= 0 {
		return false
	}
	if p.draw(Loss, uint64(level)<<32|uint64(uint32(attempt)), resolver, subject, uint64(now)) >= p.Profile.Loss {
		return false
	}
	p.m.Load().inject(Loss, now)
	return true
}

// LatencyFor returns the extra delay before the authority's answer
// arrives (0 for a fast answer). One draw both gates and sizes the
// delay, so the schedule stays a pure function of the decision point.
func (p *Plan) LatencyFor(level int, resolver, subject uint64, now simtime.Time, attempt int) simtime.Duration {
	pr := p.ProfileOrZero()
	if pr.LatencyProb <= 0 || pr.LatencyMax <= 0 {
		return 0
	}
	u := p.draw(Latency, uint64(level)<<32|uint64(uint32(attempt)), resolver, subject, uint64(now))
	if u >= pr.LatencyProb {
		return 0
	}
	d := 1 + simtime.Duration(u/pr.LatencyProb*float64(pr.LatencyMax))
	if d > pr.LatencyMax {
		d = pr.LatencyMax
	}
	p.m.Load().inject(Latency, now)
	return d
}

// TruncateAnswer reports whether the clean UDP answer to resolver for
// subject at now comes back truncated, forcing a TCP re-ask.
func (p *Plan) TruncateAnswer(level int, resolver, subject uint64, now simtime.Time) bool {
	if p == nil || p.Profile.Truncate <= 0 {
		return false
	}
	if p.draw(Truncate, uint64(level), resolver, subject, uint64(now)) >= p.Profile.Truncate {
		return false
	}
	p.m.Load().inject(Truncate, now)
	return true
}

// ServFails reports whether the authority for zone answers the
// attempt'th query at now with SERVFAIL. During a burst window the
// in-burst probability applies.
func (p *Plan) ServFails(level int, zone uint64, now simtime.Time, attempt int) bool {
	if p == nil {
		return false
	}
	prob := p.Profile.ServFail
	if p.Profile.ServFailBurst > 0 && p.burstActive(now) {
		prob = p.Profile.ServFailBurst
	}
	if prob <= 0 {
		return false
	}
	if p.draw(ServFail, uint64(level)<<32|uint64(uint32(attempt)), zone, 0, uint64(now)) >= prob {
		return false
	}
	p.m.Load().inject(ServFail, now)
	return true
}

// burstActive reports whether now falls in the active fraction of its
// burst cycle.
func (p *Plan) burstActive(now simtime.Time) bool {
	if p.Profile.BurstFrac <= 0 {
		return false
	}
	phase := uint64(now) % uint64(p.Profile.BurstPeriod)
	return float64(phase) < p.Profile.BurstFrac*float64(p.Profile.BurstPeriod)
}

// IsDead reports whether the authority for zone is dark during now's
// flap epoch: every query in the epoch times out. The draw is a pure
// function of (plan, level, zone, epoch), exactly like dnssim's
// background-warming draw, so flapping replays identically.
func (p *Plan) IsDead(level int, zone uint64, now simtime.Time) bool {
	if p == nil || p.Profile.Dead <= 0 {
		return false
	}
	epoch := uint64(now) / uint64(p.Profile.FlapPeriod)
	if p.draw(Dead, uint64(level), zone, epoch, 0) >= p.Profile.Dead {
		return false
	}
	p.m.Load().inject(Dead, now)
	return true
}

// ProfileOrZero returns the plan's profile, or the zero (inject-nothing)
// profile for a nil plan.
func (p *Plan) ProfileOrZero() Profile {
	if p == nil {
		return Profile{}
	}
	return p.Profile
}
