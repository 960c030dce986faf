// Package trace is the reproduction's end-to-end query tracing layer:
// dnstap-style structured events following one reverse lookup from the
// originating activity through the stub and recursive resolver tiers, any
// injected faults, the sensor tap, and finally the Figure 2 pipeline's
// verdict on the records it produced.
//
// Tracing obeys the repository's determinism rules:
//
//   - Trace IDs are pure splitmix64 hashes of (seed, querier, qname,
//     time) — no stateful RNG, so the same lookup gets the same ID in
//     every run and at any worker count.
//   - Sampling is head-based and hash-derived (keep the trace iff
//     id mod N == 0), so a sampled run emits a strict, deterministic
//     subset of a full run.
//   - JSONL output is rendered sorted by (t0, trace, seq, time, bytes),
//     making the rendered log a canonical form of the event multiset:
//     byte-identical regardless of the order events were committed in,
//     which is what lets parallel pipeline stages annotate provenance.
//
// Nil-safety mirrors internal/obs: every method on a nil *Tracer or nil
// *Ctx is a no-op, so instrumented packages hold an optional tracer
// without guarding call sites, and the tracing-disabled hot path does not
// allocate.
package trace

import (
	"sync"

	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/simtime"
)

// mix64 is the splitmix64 finalizer, the same pure hash the fault planner
// and dnssim use for side draws. Every trace ID is derived from it.
func mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// ID identifies one end-to-end lookup trace. It renders as a 16-digit
// zero-padded hex string in JSON and text.
type ID uint64

// IDOf derives the trace ID for a lookup as a pure hash of the tracer
// seed, the querier address, the qname (represented by the originator
// address whose reverse name is being resolved), and the lookup start
// time. No state is consumed: the same four inputs always give the same
// ID.
func IDOf(seed uint64, querier, qname uint64, now int64) ID {
	h := mix64(seed)
	h = mix64(h ^ querier)
	h = mix64(h ^ qname)
	h = mix64(h ^ uint64(now))
	return ID(h)
}

// Trace is one committed lookup: its ID, start time, and events in
// sequence order.
type Trace struct {
	// ID is the lookup's hash-derived identity.
	ID ID
	// T0 is the simulated time the lookup began.
	T0 simtime.Time
	// Events are the lookup's events in Seq order.
	Events []Event
}

// recKey joins a sensor-side record back to its trace: the pipeline sees
// (originator, querier, record time) but not the lookup start time, so the
// tracer indexes sensor events under this key.
type recKey struct {
	orig    ipaddr.Addr
	querier ipaddr.Addr
	at      simtime.Time
}

// recRef is the index value: which trace, started when.
type recRef struct {
	id ID
	t0 simtime.Time
}

// Tracer collects lookup traces. A nil *Tracer is the sanctioned
// "tracing off" value: Begin returns a nil *Ctx and every method is a
// no-op. Construct with New.
type Tracer struct {
	seed   uint64
	sample uint64
	free   sync.Pool // *Ctx the bounded ring evicted, for Begin to reuse

	mu      sync.Mutex
	ring    []*Ctx            // committed traces, guarded by mu
	next    int               // oldest trace of a full ring, guarded by mu
	max     int               // ring capacity; 0 = unbounded, guarded by mu
	extra   []Event           // pipeline provenance events, guarded by mu
	index   map[recKey]recRef // sensor record → trace join, guarded by mu
	dropped uint64            // traces evicted by the ring, guarded by mu
}

// New returns a tracer that keeps one in sample traces (sample <= 1 keeps
// every trace) and stores them without bound. The seed salts every trace
// ID; use the dataset seed so IDs are stable per experiment.
func New(seed, sample uint64) *Tracer {
	if sample < 1 {
		sample = 1
	}
	return &Tracer{seed: seed, sample: sample, index: make(map[recKey]recRef)}
}

// SetMax bounds the in-memory trace ring to at most n committed traces,
// evicting the oldest (live serving uses this; simulations leave the
// tracer unbounded). n <= 0 removes the bound. Must be called before
// traces are committed.
func (t *Tracer) SetMax(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if n < 0 {
		n = 0
	}
	t.max = n
}

// Sample returns the tracer's 1-in-N sampling divisor (1 means every
// trace is kept; 0 for a nil tracer).
func (t *Tracer) Sample() uint64 {
	if t == nil {
		return 0
	}
	return t.sample
}

// Dropped returns how many committed traces the ring has evicted.
func (t *Tracer) Dropped() uint64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Len returns the number of committed traces currently held.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.ring)
}

// Ctx is the trace context for one in-flight lookup, created by Begin and
// threaded down the resolution path. A nil *Ctx (tracing off, or this
// lookup sampled out) makes every method a no-op, so the disabled hot
// path costs one nil check and zero allocations. Once committed, a Ctx is
// the tracer's: a bounded ring hands an evicted one to a later Begin.
type Ctx struct {
	tr            *Tracer
	id            ID
	t0            simtime.Time
	querier, orig ipaddr.Addr // the lookup event's, rendered when the ring is read
	events        []Event
	keys          []recKey // records Keep confirmed; after Commit, those this trace indexed
}

// Begin starts the trace for one lookup: querier resolving the reverse
// name of orig at simulated time now. It returns nil when the tracer is
// nil or the hash-derived head sampler drops this lookup.
func (t *Tracer) Begin(querier, orig ipaddr.Addr, now simtime.Time) *Ctx {
	if t == nil {
		return nil
	}
	id := IDOf(t.seed, uint64(querier), uint64(orig), int64(now))
	if t.sample > 1 && uint64(id)%t.sample != 0 {
		return nil
	}
	c, _ := t.free.Get().(*Ctx)
	if c == nil {
		c = &Ctx{tr: t}
	}
	c.id, c.t0, c.querier, c.orig = id, now, querier, orig
	c.add(Event{Time: now, Kind: KindLookup})
	return c
}

// ID returns the trace's identity (0 for a nil context).
func (c *Ctx) ID() ID {
	if c == nil {
		return 0
	}
	return c.id
}

// add stamps the event with the trace identity and buffers it. Sequence
// numbers are assigned at Commit, once it is known which tentative sensor
// events survive.
func (c *Ctx) add(ev Event) {
	ev.T0 = c.t0
	ev.Trace = c.id
	c.events = append(c.events, ev)
}

// Activity annotates the trace with the originating campaign activity
// (class name and contact-port label) that provoked the reverse lookup.
func (c *Ctx) Activity(class, port string) {
	if c == nil {
		return
	}
	c.add(Event{Time: c.t0, Kind: KindActivity, Class: class, Port: port})
}

// CacheHit records that the querier's resolver answered from cache and no
// upstream query was sent.
func (c *Ctx) CacheHit(now simtime.Time) {
	if c == nil {
		return
	}
	c.add(Event{Time: now, Kind: KindCacheHit})
}

// Query records one upstream query attempt at a hierarchy level
// (attempt counts from 1).
func (c *Ctx) Query(level string, attempt int, now simtime.Time) {
	if c == nil {
		return
	}
	c.add(Event{Time: now, Kind: KindQuery, Level: level, Attempt: attempt})
}

// Fault annotates the current attempt at a level with an injected fault
// (loss, latency, truncate, servfail, dead, unreachable).
func (c *Ctx) Fault(level string, attempt int, fault string, now simtime.Time) {
	if c == nil {
		return
	}
	c.add(Event{Time: now, Kind: KindFault, Level: level, Attempt: attempt, Fault: fault})
}

// Answer records a response at a level: its rcode and how much injected
// latency the answer suffered.
func (c *Ctx) Answer(level string, rcode uint8, lat simtime.Duration, now simtime.Time) {
	if c == nil {
		return
	}
	c.add(Event{Time: now, Kind: KindAnswer, Level: level, RCode: RCodeName(rcode), Dur: lat})
}

// TCP records a truncation-driven retry over TCP at a level.
func (c *Ctx) TCP(level string, attempt int, now simtime.Time) {
	if c == nil {
		return
	}
	c.add(Event{Time: now, Kind: KindTCP, Level: level, Attempt: attempt})
}

// GiveUp records that the resolver exhausted its retry budget at a level
// and abandoned the lookup.
func (c *Ctx) GiveUp(level string, now simtime.Time) {
	if c == nil {
		return
	}
	c.add(Event{Time: now, Kind: KindGiveUp, Level: level})
}

// Serve records the server-side handling of one query at an authority:
// the symbolic response code sent, or "silent" when the simulated
// authority stayed unreachable.
func (c *Ctx) Serve(authority, rcode string, now simtime.Time) {
	if c == nil {
		return
	}
	c.add(Event{Time: now, Kind: KindServe, Authority: authority, RCode: rcode})
}

// Sensor records that a sensor at the named authority kept a record of
// this lookup (after sampling and horizon), and indexes the record's
// (originator, querier, time) so the pipeline can join its provenance
// back to this trace.
func (c *Ctx) Sensor(authority string, orig, querier ipaddr.Addr, rcode uint8, now simtime.Time) {
	c.Keep(c.Tap(authority, rcode, now), orig, querier)
}

// Tap buffers a tentative sensor event — a query reached the named
// authority, but whether its sensor keeps a record (sampling counts
// arrivals across all resolvers) is not known yet — and returns its
// handle. Keep confirms it; Commit drops the taps never confirmed. The
// sharded simulator taps while resolver shards run in parallel and keeps
// during the ordered merge.
func (c *Ctx) Tap(authority string, rcode uint8, now simtime.Time) int {
	if c == nil {
		return 0
	}
	// An empty Kind marks the event tentative.
	c.add(Event{Time: now, Authority: authority, RCode: RCodeName(rcode)})
	return len(c.events) - 1
}

// Keep confirms a tapped sensor event; Commit indexes the kept record's
// (originator, querier, time) under this trace unless an earlier trace
// holds it. On a bounded tracer the keys leave the index with the trace.
func (c *Ctx) Keep(tap int, orig, querier ipaddr.Addr) {
	if c == nil {
		return
	}
	ev := &c.events[tap]
	ev.Kind = KindSensor
	c.keys = append(c.keys, recKey{orig: orig, querier: querier, at: ev.Time})
}

// Finish ends and commits the trace: Done, then Commit.
func (c *Ctx) Finish(now simtime.Time, queries int) {
	c.Done(now, queries)
	c.Commit()
}

// Done appends the terminal "done" event carrying the total simulated
// duration and the number of upstream queries sent.
func (c *Ctx) Done(now simtime.Time, queries int) {
	if c == nil {
		return
	}
	c.add(Event{Time: now, Kind: KindDone, Dur: now.Sub(c.t0), Queries: queries})
}

// Commit numbers the surviving events in order, indexes the kept records
// and hands the trace to the tracer (evicting the oldest committed trace
// when the ring is bounded and full), under one hold of the tracer lock.
func (c *Ctx) Commit() {
	if c == nil {
		return
	}
	n := 0
	for i := range c.events {
		if c.events[i].Kind != "" {
			if n != i {
				c.events[n] = c.events[i]
			}
			c.events[n].Seq = n
			n++
		}
	}
	c.events = c.events[:n]
	t := c.tr
	var evicted *Ctx
	t.mu.Lock()
	keys := c.keys[:0]
	for _, k := range c.keys {
		if _, dup := t.index[k]; !dup {
			t.index[k] = recRef{id: c.id, t0: c.t0}
			keys = append(keys, k)
		}
	}
	c.keys = keys
	if t.max == 0 || len(t.ring) < t.max {
		t.ring = append(t.ring, c)
	} else {
		// Commit never overwrites an entry: these still point at the evictee.
		evicted = t.ring[t.next]
		for _, k := range evicted.keys {
			delete(t.index, k)
		}
		t.ring[t.next] = c
		t.next = (t.next + 1) % t.max
		t.dropped++
	}
	t.mu.Unlock()
	if evicted != nil {
		evicted.events, evicted.keys = evicted.events[:0], evicted.keys[:0]
		t.free.Put(evicted)
	}
}

// RecordID reports which trace produced the sensor record identified by
// (originator, querier, record time), along with the trace's start time.
// ok is false when the record's lookup was not traced (sampled out, or
// tracing off).
func (t *Tracer) RecordID(orig, querier ipaddr.Addr, at simtime.Time) (id ID, t0 simtime.Time, ok bool) {
	if t == nil {
		return 0, 0, false
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	ref, ok := t.index[recKey{orig: orig, querier: querier, at: at}]
	return ref.id, ref.t0, ok
}

// Pipeline appends a pipeline-provenance event to an existing trace:
// which Figure 2 stage saw a record of this trace and what it decided.
// It is safe to call from parallel pipeline workers; rendering sorts the
// event multiset into canonical order, so output bytes do not depend on
// commit order. Events for the pipeline use fixed high sequence numbers
// (per stage) so they sort after the lookup's own events.
func (t *Tracer) Pipeline(id ID, t0 simtime.Time, stage, outcome, detail string, now simtime.Time) {
	if t == nil {
		return
	}
	ev := Event{
		T0: t0, Trace: id, Seq: pipelineSeq(stage), Time: now,
		Kind: KindPipeline, Stage: stage, Outcome: outcome, Detail: detail,
	}
	t.mu.Lock()
	t.extra = append(t.extra, ev)
	t.mu.Unlock()
}

// pipelineSeq maps a pipeline stage to its fixed sequence number. Lookups
// never reach these values, so pipeline events always sort after the DNS
// path; ties within a stage fall through to the byte-order tiebreak.
func pipelineSeq(stage string) int {
	switch stage {
	case "dedup":
		return 1000
	case "filter":
		return 1001
	case "extract":
		return 1002
	case "classify":
		return 1003
	default:
		return 1009
	}
}

// committed returns copies of the ring's committed traces oldest-first,
// their lookup addresses rendered, plus the pipeline extras: no event the
// ring may reuse leaves the tracer lock.
func (t *Tracer) committed() ([]Trace, []Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	ring := append(t.ring[t.next:len(t.ring):len(t.ring)], t.ring[:t.next]...)
	out := make([]Trace, len(ring))
	for i, c := range ring {
		evs := append([]Event(nil), c.events...)
		for j := range evs {
			if evs[j].Kind == KindLookup {
				evs[j].Querier, evs[j].Orig = c.querier.String(), c.orig.String()
			}
		}
		out[i] = Trace{ID: c.id, T0: c.t0, Events: evs}
	}
	return out, append([]Event(nil), t.extra...)
}
