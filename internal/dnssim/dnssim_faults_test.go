package dnssim

import (
	"testing"

	"dnsbackscatter/internal/dnswire"
	"dnsbackscatter/internal/faults"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

// mustPlan parses a fault spec or fails the test.
func mustPlan(t *testing.T, spec string) *faults.Plan {
	t.Helper()
	p, err := faults.Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return p
}

// TestDeadFinalTimeoutCounted pins the satellite fix: a FinalUnreachable
// originator used to vanish from metrics entirely ("nothing to record");
// now the timeout shows up as dnssim_final_timeouts_total and the
// resolver's giveup as resolver_gaveup_total — with no fault plan
// installed at all.
func TestDeadFinalTimeoutCounted(t *testing.T) {
	reg := obs.NewRegistry()
	h, _, _, _, final, orig := wiredHierarchy(nil, reg,
		func(ipaddr.Addr) OriginatorProfile {
			return OriginatorProfile{FinalUnreachable: true}
		})
	r := newResolver(0, 0)
	if n := h.Resolve(r, orig, 0); n != 3 {
		t.Fatalf("sent %d queries, want 3", n)
	}
	if final.Seen() != 0 {
		t.Fatal("dead final authority recorded a query")
	}
	if got := reg.Counter("dnssim_final_timeouts_total").Value(); got != 1 {
		t.Errorf("dnssim_final_timeouts_total = %d, want 1", got)
	}
	if got := reg.Counter("resolver_gaveup_total").Value(); got != 1 {
		t.Errorf("resolver_gaveup_total = %d, want 1", got)
	}
	// Within ServFailTTL the negative-cache suppresses the retry, so the
	// timeout is counted once, not per attempt.
	if n := h.Resolve(r, orig, 60); n != 0 {
		t.Fatalf("retry within ServFailTTL sent %d queries", n)
	}
	if got := reg.Counter("dnssim_final_timeouts_total").Value(); got != 1 {
		t.Errorf("after suppressed retry: timeouts = %d, want still 1", got)
	}
}

// faultedRun performs a burst of cold lookups under one fault spec and
// returns the registry and total queries sent.
func faultedRun(t *testing.T, spec string, seedBase uint64, n int) (*obs.Registry, *Sensor, int) {
	t.Helper()
	reg := obs.NewRegistry()
	h, _, _, _, final, _ := wiredHierarchy(mustPlan(t, spec), reg, cachedProfile)
	queries := 0
	// Distinct resolvers + distinct originators in the instrumented /16
	// keep every lookup cold at the final level.
	for i := 0; i < n; i++ {
		r := NewResolver(ipaddr.FromOctets(10, 0, byte(i>>8), byte(i)), 0, 0, 64, rng.New(seedBase+uint64(i)))
		orig := ipaddr.FromOctets(100, 50, byte(i>>8), byte(i))
		queries += h.Resolve(r, orig, simtime.Time(i)*7)
	}
	return reg, final, queries
}

// TestLossyRetriesAndBackoff checks the 20%-loss profile drives the
// retry machinery: retries fire and are counted, some lookups give up,
// injected losses land in faults_injected_total{kind="loss"}, and the
// run completes without error.
func TestLossyRetriesAndBackoff(t *testing.T) {
	reg, _, queries := faultedRun(t, "lossy@1", 100, 400)
	retries := reg.Counter("resolver_retries_total").Value()
	if retries == 0 {
		t.Error("no retries at 20% loss")
	}
	loss := reg.Counter("faults_injected_total", obs.L("kind", "loss")).Value()
	if loss == 0 {
		t.Error("no losses injected")
	}
	// Every retry is an extra query beyond the 3-per-lookup baseline.
	if uint64(queries) < 3*400 {
		t.Errorf("queries = %d, want ≥ 1200", queries)
	}
	if reg.Counter("resolver_gaveup_total").Value() == 0 {
		t.Error("no giveups at 20% loss × 3 attempts (0.8% expected rate over 1200 exchanges)")
	}
}

// TestServFailStormObserved checks SERVFAIL answers reach the sensor
// with the right rcode during a burst window (the run starts at t=0,
// inside the first burst).
func TestServFailStormObserved(t *testing.T) {
	reg, final, _ := faultedRun(t, "servfail-storm@2", 500, 400)
	if reg.Counter("faults_injected_total", obs.L("kind", "servfail")).Value() == 0 {
		t.Fatal("no SERVFAILs injected in burst window")
	}
	sawServFail := false
	for _, rec := range final.Records() {
		if rec.RCode == dnswire.RCodeServFail {
			sawServFail = true
			break
		}
	}
	if !sawServFail {
		t.Error("no SERVFAIL record reached the final sensor")
	}
}

// TestTruncationForcesTCPFallback checks the middlebox profile's TC
// answers produce a second (TCP) query, counted in
// resolver_tcp_fallbacks_total and visible as an extra sensor record.
func TestTruncationForcesTCPFallback(t *testing.T) {
	reg, final, _ := faultedRun(t, "middlebox@3", 900, 400)
	fallbacks := reg.Counter("resolver_tcp_fallbacks_total").Value()
	if fallbacks == 0 {
		t.Fatal("no TCP fallbacks at Truncate=0.25")
	}
	if reg.Counter("faults_injected_total", obs.L("kind", "truncate")).Value() != fallbacks {
		t.Error("every injected truncation should force exactly one TCP fallback")
	}
	// The TCP re-ask is an extra final-authority observation, so the
	// sensor sees more arrivals than lookups.
	if final.Seen() <= 400 {
		t.Errorf("final saw %d arrivals, want > 400 with TC re-asks", final.Seen())
	}
}

// TestFaultedResolveDeterministic pins the determinism contract for
// fault schedules: two hierarchies under the same (profile, seed)
// produce identical query counts and byte-identical sensor records; a
// different fault seed diverges.
func TestFaultedResolveDeterministic(t *testing.T) {
	run := func(spec string) ([]int, *Sensor) {
		h, _, _, _, final, _ := wiredHierarchy(mustPlan(t, spec), nil, cachedProfile)
		counts := make([]int, 0, 300)
		for i := 0; i < 300; i++ {
			r := NewResolver(ipaddr.FromOctets(10, 1, byte(i>>8), byte(i)), 0, 0, 64, rng.New(uint64(i)))
			orig := ipaddr.FromOctets(100, 50, byte(i>>8), byte(i))
			counts = append(counts, h.Resolve(r, orig, simtime.Time(i)*11))
		}
		return counts, final
	}
	c1, f1 := run("chaos@7")
	c2, f2 := run("chaos@7")
	c3, _ := run("chaos@8")
	if len(f1.Records()) != len(f2.Records()) {
		t.Fatalf("same seed: %d vs %d records", len(f1.Records()), len(f2.Records()))
	}
	for i := range f1.Records() {
		if f1.Records()[i] != f2.Records()[i] {
			t.Fatalf("same seed diverged at record %d: %+v vs %+v", i, f1.Records()[i], f2.Records()[i])
		}
	}
	for i := range c1 {
		if c1[i] != c2[i] {
			t.Fatalf("same seed diverged at lookup %d: %d vs %d queries", i, c1[i], c2[i])
		}
	}
	diverged := false
	for i := range c1 {
		if c1[i] != c3[i] {
			diverged = true
			break
		}
	}
	if !diverged {
		t.Error("chaos@7 and chaos@8 produced identical query-count schedules")
	}
}

// TestFaultExhaustionNegativeCaches pins the ServFailTTL semantics for
// fault-induced failure: a lookup that gives up is negative-cached just
// like a dead final, so the resolver does not hammer a broken path.
func TestFaultExhaustionNegativeCaches(t *testing.T) {
	// A plan that drops everything: every exchange exhausts its retries.
	reg := obs.NewRegistry()
	h, _, _, _, _, orig := wiredHierarchy(faults.New(faults.Profile{Name: "blackhole", Loss: 1.0}, 1), reg, cachedProfile)
	r := newResolver(0, 0)
	n := h.Resolve(r, orig, 0)
	if n != 3 {
		t.Fatalf("blackhole lookup sent %d queries, want 3 (root level exhausts all attempts)", n)
	}
	if got := reg.Counter("resolver_gaveup_total").Value(); got != 1 {
		t.Errorf("resolver_gaveup_total = %d, want 1", got)
	}
	if got := h.Resolve(r, orig, 60); got != 0 {
		t.Errorf("retry within ServFailTTL sent %d queries, want 0 (negative-cached)", got)
	}
	if got := h.Resolve(r, orig, simtime.Time(6*simtime.Minute)); got == 0 {
		t.Error("resolver never retried after ServFailTTL")
	}
}
