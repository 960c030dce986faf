package trace

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"

	"dnsbackscatter/internal/simtime"
)

// JSONL renders every committed event — lookup paths and pipeline
// provenance — as one JSON object per line, sorted by (t0, trace, seq,
// time, line bytes). The sort makes the output a canonical form of the
// event multiset: byte-identical at any worker count and across repeated
// same-seed runs, regardless of commit order. A nil tracer renders empty.
func (t *Tracer) JSONL() []byte {
	if t == nil {
		return []byte{}
	}
	traces, evs := t.committed()
	for _, tr := range traces {
		evs = append(evs, tr.Events...)
	}
	type keyed struct {
		t0, tm int64
		id     uint64
		seq    int
		line   []byte
	}
	ks := make([]keyed, 0, len(evs))
	for _, ev := range evs {
		line, err := json.Marshal(ev)
		if err != nil {
			// Event is a plain struct of scalars; Marshal cannot fail.
			continue
		}
		ks = append(ks, keyed{t0: int64(ev.T0), tm: int64(ev.Time), id: uint64(ev.Trace), seq: ev.Seq, line: line})
	}
	sort.Slice(ks, func(i, j int) bool {
		a, b := ks[i], ks[j]
		if a.t0 != b.t0 {
			return a.t0 < b.t0
		}
		if a.id != b.id {
			return a.id < b.id
		}
		if a.seq != b.seq {
			return a.seq < b.seq
		}
		if a.tm != b.tm {
			return a.tm < b.tm
		}
		return bytes.Compare(a.line, b.line) < 0
	})
	var buf bytes.Buffer
	for _, k := range ks {
		buf.Write(k.line)
		buf.WriteByte('\n')
	}
	return buf.Bytes()
}

// ParseJSONL reads a JSONL trace log (as written by JSONL) and groups the
// events back into traces sorted by (t0, id), events in seq order. Lines
// that are blank are skipped; a malformed line is an error.
func ParseJSONL(r io.Reader) ([]Trace, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	byID := make(map[ID]*Trace)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(line, &ev); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		tr, ok := byID[ev.Trace]
		if !ok {
			tr = &Trace{ID: ev.Trace, T0: ev.T0}
			byID[ev.Trace] = tr
		}
		tr.Events = append(tr.Events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	ids := make([]ID, 0, len(byID))
	for id := range byID {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	out := make([]Trace, 0, len(ids))
	for _, id := range ids {
		tr := byID[id]
		sort.SliceStable(tr.Events, func(i, j int) bool {
			a, b := tr.Events[i], tr.Events[j]
			if a.Seq != b.Seq {
				return a.Seq < b.Seq
			}
			return a.Time < b.Time
		})
		out = append(out, *tr)
	}
	sortTraces(out)
	return out, nil
}

// sortTraces orders traces chronologically, ties broken by ID.
func sortTraces(ts []Trace) {
	sort.Slice(ts, func(i, j int) bool {
		if ts[i].T0 != ts[j].T0 {
			return ts[i].T0 < ts[j].T0
		}
		return ts[i].ID < ts[j].ID
	})
}

// Filter selects traces for Traces and the /traces endpoint. Zero fields
// match everything.
type Filter struct {
	// Originator keeps traces whose lookup originator equals this
	// dotted-quad address.
	Originator string
	// Querier keeps traces whose lookup querier equals this address.
	Querier string
	// RCode keeps traces containing an answer or sensor event with this
	// symbolic rcode (noerror, nxdomain, servfail).
	RCode string
	// MinDur keeps traces whose total duration is at least this many
	// simulated seconds.
	MinDur simtime.Duration
	// Limit caps the result at the most recent N traces (0 = no cap).
	Limit int
}

// match reports whether one trace passes the filter.
func (f Filter) match(tr Trace) bool {
	var orig, querier string
	var dur simtime.Duration
	rcodeHit := f.RCode == ""
	for _, ev := range tr.Events {
		switch ev.Kind {
		case KindLookup:
			orig, querier = ev.Orig, ev.Querier
		case KindDone:
			dur = ev.Dur
		}
		if !rcodeHit && ev.RCode == f.RCode {
			rcodeHit = true
		}
	}
	if f.Originator != "" && orig != f.Originator {
		return false
	}
	if f.Querier != "" && querier != f.Querier {
		return false
	}
	if dur < f.MinDur {
		return false
	}
	return rcodeHit
}

// Traces returns the committed traces passing the filter, chronological
// (oldest first); with a Limit it keeps the most recent matches. Pipeline
// provenance events are merged into their traces.
func (t *Tracer) Traces(f Filter) []Trace {
	if t == nil {
		return nil
	}
	committed, extra := t.committed()
	byID := make(map[ID]int, len(committed))
	out := make([]Trace, 0, len(committed))
	for _, tr := range committed {
		byID[tr.ID] = len(out)
		out = append(out, tr)
	}
	sort.SliceStable(extra, func(i, j int) bool {
		if extra[i].Seq != extra[j].Seq {
			return extra[i].Seq < extra[j].Seq
		}
		if extra[i].Time != extra[j].Time {
			return extra[i].Time < extra[j].Time
		}
		return extra[i].Detail < extra[j].Detail
	})
	for _, ev := range extra {
		if i, ok := byID[ev.Trace]; ok {
			out[i].Events = append(out[i].Events, ev)
		}
	}
	sortTraces(out)
	return f.Apply(out)
}

// Apply filters an already-sorted trace set (e.g. one read back with
// ParseJSONL), keeping the most recent Limit matches. Traces uses it on a
// live tracer's committed set.
func (f Filter) Apply(ts []Trace) []Trace {
	kept := make([]Trace, 0, len(ts))
	for _, tr := range ts {
		if f.match(tr) {
			kept = append(kept, tr)
		}
	}
	if f.Limit > 0 && len(kept) > f.Limit {
		kept = kept[len(kept)-f.Limit:]
	}
	return kept
}

// RenderTree renders one trace as an indented span tree: the lookup
// header, then each event on the path with per-level indentation, so a
// root→national→final walk (with its retries and injected faults) reads
// top to bottom.
func RenderTree(tr Trace) string {
	var b strings.Builder
	var orig, querier string
	var dur simtime.Duration
	queries := 0
	for _, ev := range tr.Events {
		switch ev.Kind {
		case KindLookup:
			orig, querier = ev.Orig, ev.Querier
		case KindDone:
			dur, queries = ev.Dur, ev.Queries
		}
	}
	fmt.Fprintf(&b, "trace %s  querier=%s orig=%s  t0=%s  dur=%ds queries=%d\n",
		tr.ID, querier, orig, tr.T0, dur, queries)
	for _, ev := range tr.Events {
		switch ev.Kind {
		case KindLookup:
			// Rendered in the header.
		case KindActivity:
			fmt.Fprintf(&b, "  activity  class=%s port=%s\n", ev.Class, ev.Port)
		case KindCacheHit:
			fmt.Fprintf(&b, "  cache hit  (answered locally, no upstream queries)\n")
		case KindQuery:
			fmt.Fprintf(&b, "  [%s] +%ds query attempt=%d\n", ev.Level, ev.Time.Sub(tr.T0), ev.Attempt)
		case KindFault:
			fmt.Fprintf(&b, "  [%s]   ! fault=%s attempt=%d\n", ev.Level, ev.Fault, ev.Attempt)
		case KindAnswer:
			lat := ""
			if ev.Dur > 0 {
				lat = fmt.Sprintf(" lat=%ds", ev.Dur)
			}
			fmt.Fprintf(&b, "  [%s]   answer rcode=%s%s\n", ev.Level, ev.RCode, lat)
		case KindTCP:
			fmt.Fprintf(&b, "  [%s]   tcp retry attempt=%d\n", ev.Level, ev.Attempt)
		case KindGiveUp:
			fmt.Fprintf(&b, "  [%s]   gave up (retry budget exhausted)\n", ev.Level)
		case KindSensor:
			fmt.Fprintf(&b, "  sensor[%s] +%ds recorded rcode=%s\n", ev.Authority, ev.Time.Sub(tr.T0), ev.RCode)
		case KindServe:
			fmt.Fprintf(&b, "  serve[%s] rcode=%s\n", ev.Authority, ev.RCode)
		case KindDone:
			fmt.Fprintf(&b, "  done  +%ds queries=%d\n", ev.Dur, ev.Queries)
		case KindPipeline:
			d := ""
			if ev.Detail != "" {
				d = " " + ev.Detail
			}
			fmt.Fprintf(&b, "  pipeline[%s] %s%s\n", ev.Stage, ev.Outcome, d)
		default:
			fmt.Fprintf(&b, "  %s\n", ev.Kind)
		}
	}
	return b.String()
}

// Summarize aggregates a trace set into the operator's three questions:
// the top-N slowest lookup chains, where lookups gave up, and the
// per-level injected-latency distribution.
func Summarize(ts []Trace, topN int) string {
	if topN <= 0 {
		topN = 10
	}
	type chain struct {
		tr      Trace
		dur     simtime.Duration
		queries int
	}
	var chains []chain
	giveups := map[string]int{}
	lat := map[string][]simtime.Duration{}
	var levels []string
	for _, tr := range ts {
		c := chain{tr: tr}
		for _, ev := range tr.Events {
			switch ev.Kind {
			case KindDone:
				c.dur, c.queries = ev.Dur, ev.Queries
			case KindGiveUp:
				giveups[ev.Level]++
			case KindAnswer:
				if _, ok := lat[ev.Level]; !ok {
					levels = append(levels, ev.Level)
				}
				lat[ev.Level] = append(lat[ev.Level], ev.Dur)
			}
		}
		chains = append(chains, c)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "traces: %d\n\n", len(ts))

	sort.SliceStable(chains, func(i, j int) bool {
		if chains[i].dur != chains[j].dur {
			return chains[i].dur > chains[j].dur
		}
		return chains[i].tr.ID < chains[j].tr.ID
	})
	if len(chains) > topN {
		chains = chains[:topN]
	}
	fmt.Fprintf(&b, "slowest chains (top %d):\n", len(chains))
	for _, c := range chains {
		var orig string
		for _, ev := range c.tr.Events {
			if ev.Kind == KindLookup {
				orig = ev.Orig
				break
			}
		}
		fmt.Fprintf(&b, "  %4ds  %2d queries  %s  orig=%s\n", c.dur, c.queries, c.tr.ID, orig)
	}

	fmt.Fprintf(&b, "\ngive-up paths:\n")
	var glv []string
	for lv := range giveups {
		glv = append(glv, lv)
	}
	sort.Strings(glv)
	if len(glv) == 0 {
		fmt.Fprintf(&b, "  (none)\n")
	}
	for _, lv := range glv {
		fmt.Fprintf(&b, "  %-8s %d\n", lv, giveups[lv])
	}

	fmt.Fprintf(&b, "\nper-level injected latency (seconds):\n")
	sort.Strings(levels)
	for _, lv := range levels {
		ds := lat[lv]
		sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
		var sum simtime.Duration
		buckets := map[simtime.Duration]int{}
		for _, d := range ds {
			sum += d
			buckets[latBucket(d)]++
		}
		fmt.Fprintf(&b, "  %-8s n=%d mean=%.2f p50=%d max=%d  |", lv, len(ds),
			float64(sum)/float64(len(ds)), ds[len(ds)/2], ds[len(ds)-1])
		var bks []simtime.Duration
		for bk := range buckets {
			bks = append(bks, bk)
		}
		sort.Slice(bks, func(i, j int) bool { return bks[i] < bks[j] })
		for _, bk := range bks {
			fmt.Fprintf(&b, " <=%d:%d", bk, buckets[bk])
		}
		fmt.Fprintf(&b, "\n")
	}
	return b.String()
}

// latBucket rounds a latency up to its power-of-two histogram bucket.
func latBucket(d simtime.Duration) simtime.Duration {
	b := simtime.Duration(1)
	for b < d {
		b *= 2
	}
	if d == 0 {
		return 0
	}
	return b
}
