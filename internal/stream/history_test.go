package stream

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"dnsbackscatter/internal/dnslog"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

// diffVectors names the first difference between two vector lists, bit for
// bit, or returns "".
func diffVectors(a, b []*features.Vector) string {
	if len(a) != len(b) {
		return fmt.Sprintf("%d vectors against %d", len(a), len(b))
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.Originator != y.Originator || x.Queriers != y.Queriers || x.Queries != y.Queries {
			return fmt.Sprintf("vector %d: %v against %v", i, x, y)
		}
		for f := range x.X {
			if math.Float64bits(x.X[f]) != math.Float64bits(y.X[f]) {
				return fmt.Sprintf("vector %d (%v) feature %s: %v against %v",
					i, x.Originator, features.Names()[f], x.X[f], y.X[f])
			}
		}
	}
	return ""
}

func cloneVectors(vs []*features.Vector) []*features.Vector {
	out := make([]*features.Vector, len(vs))
	for i, v := range vs {
		c := *v
		out[i] = &c
	}
	return out
}

// coldScore runs recs through a second engine whose one epoch spans the
// whole stream, so that its only score, at final, starts from nothing
// cached. Both engines must have started at time 0, and final must be a
// multiple of the first engine's epoch beyond every record. Its dedup
// tables are bounded at dedupMax slots, as the first engine's were.
func coldScore(t testing.TB, cfg Config, dedupMax int, recs []dnslog.Record, batch int, final simtime.Time) []*features.Vector {
	t.Helper()
	cfg.Epoch = simtime.Duration(final)
	e := boundDedup(New(cfg), dedupMax)
	feedIn(e, recs, batch)
	e.Tick(final)
	if got := e.Status().Epochs; got != 1 {
		t.Fatalf("the cold engine scored %d times", got)
	}
	return e.Vectors()
}

// TestRescoreHistoryInvariant is the test a stale cache fails: what an
// epoch's score says may depend on the sketches and the clock, never on
// which earlier epochs looked at them. An engine re-scored hourly — its
// estimates and sample summaries cached, refreshed, evicted and rebuilt
// along the way — must end on exactly the vectors of an engine that scored
// once.
func TestRescoreHistoryInvariant(t *testing.T) {
	base := genRecords(3, 120, 40)
	slices.SortStableFunc(base, func(a, b dnslog.Record) int { return int(a.Time - b.Time) })
	for i := range base {
		base[i].Time -= 1000 // genRecords starts there; both engines must start on a common epoch floor
	}
	last := base[len(base)-1].Time
	// Disorder within reach of the 1024-record calls, the first record kept.
	st := rng.New(8)
	for i := 1; i < len(base); i += 64 {
		blk := base[i:min(i+64, len(base))]
		st.Shuffle(len(blk), func(a, b int) { blk[a], blk[b] = blk[b], blk[a] })
	}
	// Stragglers: every 97th record arrives when the stream is over, hours
	// behind the epoch clock.
	var late, onTime []dnslog.Record
	for i, r := range base {
		if i > 0 && i%97 == 0 {
			late = append(late, r)
		} else {
			onTime = append(onTime, r)
		}
	}
	stragglers := append(onTime, late...)
	// A far-future record in mid-stream: the clock jumps, everything after
	// it is a straggler.
	jump := slices.Clone(base)
	jump[len(jump)/2].Time = 1000 * simtime.Time(simtime.Hour)

	for _, tc := range []struct {
		name    string
		recs    []dnslog.Record
		maxOrig int
		final   simtime.Time
		epochs  int // at least this many scores on the way
		evicts  bool
	}{
		{"local-disorder", base, 1 << 10, last, 3, false},
		{"evict-and-readmit", base, 32, last, 3, true},
		{"stragglers", stragglers, 1 << 10, last, 3, false},
		{"far-future-jump", jump, 1 << 10, jump[len(jump)/2].Time, 2, false},
	} {
		hour := simtime.Time(simtime.Hour)
		final := (tc.final/hour + 1) * hour
		for _, workers := range []int{1, 4} {
			cfg := testConfig(workers)
			cfg.MaxOriginators = tc.maxOrig
			e := New(cfg)
			half := len(tc.recs) / 2
			feedIn(e, tc.recs[:half], 1024)
			// A returned slice belongs to its caller: later epochs build
			// their own and must leave this one alone.
			held := e.Vectors()
			kept := cloneVectors(held)
			heldAt := e.Status().Epochs
			feedIn(e, tc.recs[half:], 1024)
			e.Tick(final)

			status := e.Status()
			if status.Epochs < tc.epochs || heldAt == 0 || status.Epochs < heldAt+2 || tc.evicts != (status.Evictions > 0) {
				t.Fatalf("%s: %d epochs (%d at the hold), %d evictions: the case does not exercise what it names",
					tc.name, status.Epochs, heldAt, status.Evictions)
			}
			if len(held) == 0 {
				t.Fatalf("%s: no vectors to hold at half-way", tc.name)
			}
			if d := diffVectors(held, kept); d != "" {
				t.Errorf("%s workers=%d: a later epoch wrote to a slice Vectors() had returned: %s", tc.name, workers, d)
			}
			if d := diffVectors(e.Vectors(), coldScore(t, cfg, dedupMaxSlots, tc.recs, 1024, final)); d != "" {
				t.Errorf("%s workers=%d: hourly re-scoring and one cold score disagree: %s", tc.name, workers, d)
			}
		}
	}
}
