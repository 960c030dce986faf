package world

import (
	"math"
	"runtime"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/parallel"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

// pickTarget is the TargetFunc campaigns use: global draws cover the whole
// allocated space, local draws stay in the campaign's home country.
func (w *World) pickTarget(global bool, home string, st *rng.Stream) ipaddr.Addr {
	if !global {
		if a, ok := w.Geo.RandomAddrIn(home, st); ok {
			return a
		}
	}
	return ipaddr.Addr(st.Uint64())
}

// The simulation runs in three phases per batch of events — generate,
// resolve in shards, merge — so that the resolver walks, which own all the
// cache state and most of the time, can run side by side. Generation fills
// one batch while a stage goroutine resolves and merges the one before.

// simShards is the fixed number of resolver shards. Every resolver belongs
// to one shard by a stable hash of its address; a shard owns its resolvers'
// caches and random streams outright, so shards share no mutable state.
const simShards = 16

// batchEvents caps how many events are generated before the shards run,
// which bounds the request and tap buffers of each of the two batches
// whatever the world's size.
const batchEvents = 1 << 14

// campaignCtx is what every event of one campaign shares: hoisted out of
// the per-event path when the campaign's run of events begins.
type campaignCtx struct {
	c   *activity.Campaign
	mix classMix
	sub dnssim.Subject // the originator's profile and sensors
}

// request is one activity event routed to the querier that reacts to it.
type request struct {
	seq uint32 // position in the batch: the global order key
	ctx int32  // index into batch.ctxs
	t   simtime.Time
	q   *querier
}

// batch is a run of consecutive events in generation order, split by
// resolver shard.
type batch struct {
	// horizon is the start of the day the batch's first event was
	// generated in: no later lookup precedes it, unlike the batch's
	// earliest event (DESIGN.md §5).
	horizon simtime.Time
	ctxs    []campaignCtx
	order   []uint8 // order[seq] is the shard holding request seq
	shards  [simShards]struct {
		reqs []request
		taps []dnssim.Tap // in request order, hence ascending Seq
	}
}

// touch is the generate phase for one activity event: everything that
// depends on the order events are generated in but not on any resolver's
// state. It counts the event, maps the target to the reacting querier
// (pool materialization order feeds address-collision avoidance), queues
// the lookup on the querier's shard, and feeds the darknet — scanning and
// misbehaving-P2P touches each stand for a much larger raw probe volume,
// thinned at the darknet's space fraction with draws from one shared
// stream.
func (w *World) touch(c *activity.Campaign, day simtime.Time, e activity.Event) {
	if len(w.bufs[w.cur].order) == batchEvents {
		w.flush()
	}
	b := &w.bufs[w.cur]
	if len(b.order) == 0 {
		b.horizon = day
	}
	n := len(b.ctxs)
	if n == 0 || b.ctxs[n-1].c != c {
		b.ctxs = append(b.ctxs, campaignCtx{c: c, mix: w.mixes[c.Originator], sub: w.hier.Subject(c.Originator)})
		n++
	}
	cc := &b.ctxs[n-1]

	w.m.event(e.Time)
	q := w.pool.forTarget(c.Originator, &cc.mix, e.Target)
	sh := &b.shards[q.shard()]
	sh.reqs = append(sh.reqs, request{seq: uint32(len(b.order)), ctx: int32(n - 1), t: e.Time, q: q})
	b.order = append(b.order, q.shard())

	if w.Dark != nil {
		switch c.Class {
		case activity.Scan:
			w.Dark.ObserveThinned(c.Originator, scanRawProbes, w.darkSt)
		case activity.P2P:
			w.Dark.ObserveThinned(c.Originator, p2pRawProbes, w.darkSt)
		default:
			w.Dark.Observe(c.Originator, e.Target)
		}
	}
}

// flush waits for the batch in flight, then hands the pending batch to a
// stage goroutine that resolves and merges it, and turns generation to the
// other buffer.
func (w *World) flush() {
	w.wait()
	b := &w.bufs[w.cur]
	if len(b.order) == 0 {
		return
	}
	w.cur ^= 1
	done := make(chan any, 1)
	w.done = done
	go func() {
		// The pool re-raises a shard's panic here; wait re-raises it on
		// Run's goroutine.
		defer func() { done <- recover() }()
		w.resolveAndMerge(b)
	}()
}

// wait blocks until the batch in flight, if any, is resolved and merged.
func (w *World) wait() {
	if w.done == nil {
		return
	}
	p := <-w.done
	w.done = nil
	if p != nil {
		panic(p)
	}
}

// resolveAndMerge runs the resolve and merge phases over b and empties it.
func (w *World) resolveAndMerge(b *batch) {
	if w.staged != nil {
		w.staged(b)
	}
	for _, c := range w.pool.caches {
		c.SetHorizon(b.horizon)
	}
	pool := parallel.Pool{Workers: w.Cfg.Workers, Obs: w.Cfg.Obs, Stage: "world-sim", Acct: w.Cfg.Acct}
	pool.Each(simShards, func(s int) { w.resolve(b, s) })

	// Merge: sensors sample by global arrival order and the tracer commits
	// in it, so taps are delivered request by request in generation order.
	// Each shard's taps already ascend by Seq, so one cursor per shard
	// makes this a single pass.
	var next [simShards]int
	for seq, s := range b.order {
		taps := b.shards[s].taps
		i := next[s]
		j := i
		for j < len(taps) && taps[j].Seq == uint32(seq) {
			j++
		}
		if j > i {
			dnssim.Deliver(taps[i:j])
			next[s] = j
		}
	}

	b.ctxs = b.ctxs[:0]
	b.order = b.order[:0]
	for s := range b.shards {
		b.shards[s].reqs = b.shards[s].reqs[:0]
		b.shards[s].taps = b.shards[s].taps[:0]
	}
}

// resolve is the resolve phase for shard s of b: each queued event's
// reverse lookup walks the reacting querier's resolver, producing
// backscatter taps at whichever authorities see it. It touches only the
// shard's own resolvers (caches, streams) and tap buffer; the hierarchy,
// the batch's campaign contexts and the fault plan are read-only here.
func (w *World) resolve(b *batch, s int) {
	sh := &b.shards[s]
	// Append through a local slice header: the shards' headers sit side by
	// side in the batch, and neighbours are written from different cores.
	taps := sh.taps
	h, tr := w.hier, w.Cfg.Tracer
	end := w.Cfg.Start.Add(w.Cfg.Duration)
	for i := range sh.reqs {
		rq := &sh.reqs[i]
		cc := &b.ctxs[rq.ctx]
		r, orig := &rq.q.Resolver, cc.sub.Orig
		// Begin the lookup's trace here rather than inside the walk so the
		// campaign activity that provoked it is annotated on the span.
		tc := tr.Begin(r.Addr, orig, rq.t)
		tc.Activity(cc.c.Class.String(), cc.c.Port)
		h.Walk(&taps, rq.seq, r, &cc.sub, rq.t, tc)
		// TTL-violating queriers re-resolve while handling one event (log
		// flushes, per-connection lookups); their repeats are what push the
		// paper's queries-per-querier to 3-5 for hammering activity.
		if ttl := r.MaxPTRTTL; ttl > 0 {
			requeries := 1
			if c := rq.q.category(); c == qname.FW || c == qname.Home {
				requeries = 3 // per-connection log lookups
			}
			for k := 1; k <= requeries; k++ {
				rt := rq.t.Add(simtime.Duration(k) * (ttl + 30))
				if !rt.Before(end) {
					break
				}
				h.Walk(&taps, rq.seq, r, &cc.sub, rt, tr.Begin(r.Addr, orig, rt))
			}
		}
	}
	sh.taps = taps
}

// profileForClass flavors an originator's reverse-DNS posture by class,
// echoing the TTL/nxdomain/unreachable patterns of Tables VII and VIII
// (spammers on home-style or missing names, many scanners with dead or
// absent reverse zones, ad-trackers and CDNs on short TTLs).
func (w *World) profileForClass(cls activity.Class, orig ipaddr.Addr, st *rng.Stream) dnssim.OriginatorProfile {
	name := "origin-" + orig.String() + "." + w.Geo.CCTLD(orig)
	mk := func(ttl simtime.Duration) dnssim.OriginatorProfile {
		return dnssim.OriginatorProfile{HasName: true, Name: name, TTL: ttl, NegTTL: ttl / 2}
	}
	switch cls {
	case activity.Spam:
		switch {
		case st.Bool(0.55):
			return mk(simtime.Duration(8+st.Intn(17)) * simtime.Hour)
		case st.Bool(0.6):
			return dnssim.OriginatorProfile{NegTTL: simtime.Duration(10+st.Intn(50)) * simtime.Minute}
		default:
			return mk(simtime.Duration(10+st.Intn(50)) * simtime.Minute)
		}
	case activity.Scan:
		switch {
		case st.Bool(0.4):
			return dnssim.OriginatorProfile{NegTTL: simtime.Duration(1+st.Intn(48)) * simtime.Hour}
		case st.Bool(0.4):
			return dnssim.OriginatorProfile{FinalUnreachable: true}
		default:
			return mk(simtime.Duration(1+st.Intn(2)) * simtime.Day)
		}
	case activity.AdTracker:
		return mk(simtime.Duration(10+st.Intn(35)) * simtime.Minute)
	case activity.CDN:
		if st.Bool(0.3) {
			return dnssim.OriginatorProfile{FinalUnreachable: true} // Akamai-style hidden edges
		}
		return mk(simtime.Duration(1+st.Intn(10)) * simtime.Minute)
	default:
		return mk(simtime.Duration(1+st.Intn(24)) * simtime.Hour)
	}
}

// spawn creates one campaign (and its team-mates for coordinated scans),
// registering ground truth and the originator's DNS profile.
func (w *World) spawn(cls activity.Class, start simtime.Time, port string, maxEnd simtime.Time) {
	st := w.spawnSt
	home := w.homeCountry(st)
	if cls == activity.Update {
		home = "jp" // the paper's update services are JP vendor hosts
	}
	orig := w.originatorIn(home, st)
	c := activity.NewCampaign(cls, orig, start, home, st)
	c.TouchesPerHour *= w.Cfg.RateScale
	if port != "" {
		c.Port = port
	}
	if maxEnd != 0 && c.End.After(maxEnd) {
		c.End = maxEnd
	}

	team := 0
	if cls == activity.Scan && st.Bool(w.Cfg.Teams) {
		team = w.nextTeam
		w.nextTeam++
		// Coordinated scanning from one /24: a handful to >100 members
		// (§VI-C observes a 140-address ssh team). Cap relative to the
		// steady-state population so one team cannot swamp a downscaled
		// world's trend lines.
		size := 3 + int(st.Pareto(3, 1.3))
		if cap := 2*w.Cfg.ClassPopulation[activity.Scan] + 4; size > cap {
			size = cap
		}
		if size > 100 {
			size = 100
		}
		base := ipaddr.NewPrefix(orig, 24)
		for i := 0; i < size; i++ {
			member := base.Nth(uint64(st.Intn(256)))
			if _, taken := w.truth[member]; taken {
				continue
			}
			mc := activity.NewCampaign(cls, member, start, home, st)
			// Team members mostly probe below the founder's rate; only a
			// fraction of a real team clears the analyzability bar in any
			// one week.
			mc.TouchesPerHour = c.TouchesPerHour * 0.4 * (0.25 + st.Float64())
			mc.Port = c.Port
			mc.Team = team
			mc.End = c.End
			if maxEnd != 0 && mc.End.After(maxEnd) {
				mc.End = maxEnd
			}
			w.register(mc, st)
		}
	}
	c.Team = team
	w.register(c, st)
}

func (w *World) register(c *activity.Campaign, st *rng.Stream) {
	w.m.birth(c.Class, c.Start)
	w.Campaigns = append(w.Campaigns, c)
	w.truth[c.Originator] = Truth{Class: c.Class, Port: c.Port, Team: c.Team}
	w.profiles[c.Originator] = w.profileForClass(c.Class, c.Originator, st)
	// Each campaign reacts through a slightly different querier
	// population: blend toward one random other class.
	other := activity.Class(st.Intn(int(activity.NumClasses)))
	lambda := 0.1 + st.Float64()*0.5
	w.mixes[c.Originator] = blendMix(&classMixes[c.Class], &classMixes[other], lambda)
}

// Run simulates the configured span, filling every attached sensor, then
// drops the simulator. It is idempotent: a second call is a no-op.
func (w *World) Run() {
	if w.ran {
		return
	}
	w.ran = true
	defer w.Cfg.Acct.Start("world-sim").End()

	// Initial population. Exponential lifetimes are memoryless, so fresh
	// spawns at t0 have exactly the steady-state residual-lifetime
	// distribution; the birth process below maintains the population.
	for cls := activity.Class(0); cls < activity.NumClasses; cls++ {
		for i := 0; i < w.Cfg.ClassPopulation[cls]; i++ {
			w.spawn(cls, w.Cfg.Start, "", 0)
		}
	}

	end := w.Cfg.Start.Add(w.Cfg.Duration)
	var events []activity.Event
	for day := w.Cfg.Start; day.Before(end); day = day.Add(simtime.Day) {
		dayEnd := day.Add(simtime.Day)
		if end.Before(dayEnd) {
			dayEnd = end
		}

		if day != w.Cfg.Start {
			w.births(day, dayEnd)
		}
		for _, b := range w.Cfg.Bursts {
			if !b.Start.Before(day) && b.Start.Before(dayEnd) {
				w.burst(b)
			}
		}

		for _, c := range w.Campaigns {
			if !c.Overlaps(day, dayEnd) {
				continue
			}
			events = c.EventsIn(day, dayEnd, w.pickTarget, events[:0])
			for _, e := range events {
				w.touch(c, day, e)
			}
		}
	}
	w.flush()
	w.wait()

	if w.m != nil {
		for _, c := range w.Campaigns {
			if c.End != 0 && c.End.Before(end) {
				w.m.deaths.IncAt(c.End)
			}
		}
		w.m.campaigns.SetAt(int64(len(w.Campaigns)), end)
		w.m.queriers.SetAt(int64(w.pool.size()), end)
	}
	w.release()
}

// release drops the simulator once the last batch is merged and its stage
// goroutine has exited: the hierarchy, the querier pool down to its name
// table, the campaign mixes and the batch buffers. Nothing reads them again.
// It then collects them: the simulator is the largest object graph a build
// makes, and the heap goal it left would otherwise let what follows Run
// pile up on top of it before the next collection.
func (w *World) release() {
	w.hier, w.mixes, w.bufs = nil, nil, [2]batch{}
	w.pool.collapse()
	runtime.GC()
}

// births replaces departed campaigns to hold each class population steady.
func (w *World) births(day, dayEnd simtime.Time) {
	for cls := activity.Class(0); cls < activity.NumClasses; cls++ {
		pop := w.Cfg.ClassPopulation[cls]
		if pop == 0 {
			continue
		}
		meanDays := float64(activity.Templates[cls].MeanLifetime) / float64(simtime.Day)
		expected := float64(pop) / meanDays
		n := poissonDraw(w.spawnSt, expected)
		for i := 0; i < n; i++ {
			at := day.Add(simtime.Duration(w.spawnSt.Intn(int(dayEnd.Sub(day)))))
			w.spawn(cls, at, "", 0)
		}
	}
}

// burst injects the extra campaigns of a security-event reaction, with
// lifetimes bounded by the burst window.
func (w *World) burst(b Burst) {
	for i := 0; i < b.Extra; i++ {
		at := b.Start.Add(simtime.Duration(w.spawnSt.Float64() * 0.3 * float64(b.Duration)))
		w.spawn(b.Class, at, b.Port, b.Start.Add(b.Duration))
	}
}

// poissonDraw mirrors activity's internal sampler for the birth process.
func poissonDraw(st *rng.Stream, lambda float64) int {
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

// QuerierPoolSize reports how many distinct queriers have been
// materialized so far (diagnostics).
func (w *World) QuerierPoolSize() int { return w.pool.size() }
