package cache

import (
	"fmt"
	"testing"

	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

// TestTableMatchesMapOracle drives one shared, unbounded table and one
// map per owner through the same random operation sequence — puts,
// negative puts, zero-TTL clears, gets at advancing times — and demands
// the same answers and entry counts throughout: probing, growth and
// backward-shift deletion must never lose, duplicate or misattribute an
// entry.
func TestTableMatchesMapOracle(t *testing.T) {
	matchOracle(t, NewTable[struct{}](0), false, false)
}

// TestHorizonTableMatchesMapOracle is the same run on keys that drift
// through a growing key space, with a horizon raised to each operation's
// time every thousand operations. The answers must still match the
// oracle's, and the table must stay within a fixed multiple of the
// entries that outlive the horizon — its working set — where a table
// without a horizon keeps every key it was ever given.
func TestHorizonTableMatchesMapOracle(t *testing.T) {
	withHorizon, without := NewTable[struct{}](0), NewTable[struct{}](0)
	matchOracle(t, withHorizon, true, true)
	matchOracle(t, without, true, false)
	if len(withHorizon.slots)*8 > len(without.slots) {
		t.Errorf("the table with a horizon ends at %d slots, one without at %d: want 1/8 or less",
			len(withHorizon.slots), len(without.slots))
	}
}

// matchOracle runs the oracle comparison on tab; drift moves the keys
// through a growing key space, horizon raises tab's horizon as it goes.
func matchOracle(t *testing.T, tab *Table[struct{}], drift, horizon bool) {
	type entry struct {
		neg     bool
		expires simtime.Time
	}
	const owners = 37
	oracle := make([]map[uint64]entry, owners)
	for i := range oracle {
		oracle[i] = make(map[uint64]entry)
	}
	st := rng.New(11)
	for op := 0; op < 200_000; op++ {
		o := st.Intn(owners)
		base := 0
		if drift {
			base = op / 50 // 20 new keys per simulated second: history grows
		}
		key := uint64(1+st.Intn(3))<<40 | uint64(base+st.Intn(400))
		now := simtime.Time(op / 20)
		if horizon && op%1000 == 0 {
			tab.SetHorizon(now)
		}
		switch st.Intn(4) {
		case 0:
			ttl := simtime.Duration(st.Intn(900) - 50) // some <= 0: clears
			tab.Put(o, key, struct{}{}, ttl, now)
			if ttl <= 0 {
				delete(oracle[o], key)
			} else {
				oracle[o][key] = entry{expires: now.Add(ttl)}
			}
		case 1:
			ttl := simtime.Duration(1 + st.Intn(300))
			tab.PutNegative(o, key, ttl, now)
			oracle[o][key] = entry{neg: true, expires: now.Add(ttl)}
		default:
			_, neg, ok := tab.Get(o, key, now)
			want, present := oracle[o][key]
			if present && !now.Before(want.expires) {
				delete(oracle[o], key) // Get sweeps what it finds expired
				present = false
			}
			if ok != present || (ok && neg != want.neg) {
				t.Fatalf("op %d: Get(owner %d, %#x, t=%d) = neg %v ok %v, oracle has %+v present %v",
					op, o, key, now, neg, ok, want, present)
			}
		}
		if op%5000 != 0 {
			continue
		}
		// The table holds the oracle's entries less some of those that
		// expired by the horizon (all of them where there is none).
		total, alive := 0, 0
		for i, m := range oracle {
			live := 0
			for _, e := range m {
				if tab.horizon.Before(e.expires) {
					live++
				}
			}
			if held := tab.held(i); held < live || held > len(m) {
				t.Fatalf("op %d: owner %d holds %d entries, oracle %d of which %d outlive the horizon",
					op, i, held, len(m), live)
			}
			total += len(m)
			alive += live
		}
		if !horizon && tab.used != total {
			t.Fatalf("op %d: table holds %d entries, oracle %d", op, tab.used, total)
		}
		if horizon && tab.used > 4*alive+minSlots {
			t.Fatalf("op %d: table holds %d entries for a working set of %d", op, tab.used, alive)
		}
	}
}

// TestHorizonIsEnforced: the horizon is a promise the table checks, not
// one it trusts — a Get or put before it panics, and so does a horizon that
// moves back, whereas an operation at the horizon itself is allowed.
func TestHorizonIsEnforced(t *testing.T) {
	const h = simtime.Time(1000)
	for name, op := range map[string]func(*Table[struct{}]){
		"Get before":         func(tab *Table[struct{}]) { tab.Get(0, 1, h-1) },
		"Put before":         func(tab *Table[struct{}]) { tab.Put(0, 1, struct{}{}, 10, h-1) },
		"PutNegative before": func(tab *Table[struct{}]) { tab.PutNegative(0, 1, 10, h-1) },
		"SetHorizon back":    func(tab *Table[struct{}]) { tab.SetHorizon(h - 1) },
	} {
		tab := NewTable[struct{}](8)
		tab.SetHorizon(h)
		tab.Put(0, 1, struct{}{}, 10, h)
		tab.SetHorizon(h) // a horizon may stay where it is
		if _, _, ok := tab.Get(0, 1, h); !ok {
			t.Fatalf("%s: the entry put at the horizon is gone", name)
		}
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s the horizon: no panic", name)
				}
			}()
			op(tab)
		}()
	}
}

// TestSharedTableBoundIsPerOwner fills one owner past its bound and
// checks the neighbours sharing the table are neither evicted nor counted
// against it.
func TestSharedTableBoundIsPerOwner(t *testing.T) {
	tab := NewTable[struct{}](8)
	const a, b = 0, 1
	for k := uint64(0); k < 5; k++ {
		tab.Put(b, k, struct{}{}, 1000, 0)
	}
	for k := uint64(0); k < 100; k++ {
		tab.Put(a, k, struct{}{}, 1000, 0)
	}
	if tab.held(a) != 8 || tab.held(b) != 5 {
		t.Errorf("owners hold %d and %d entries, want 8 and 5", tab.held(a), tab.held(b))
	}
	for k := uint64(0); k < 5; k++ {
		if _, _, ok := tab.Get(b, k, 1); !ok {
			t.Errorf("owner b lost key %d to owner a's evictions", k)
		}
	}
}

// held is owner's live-entry count: 0 for an owner the table has not seen.
func (t *Table[V]) held(owner int) int {
	if owner >= len(t.owned) {
		return 0
	}
	return int(t.owned[owner])
}

// TestOwnerFirstSeenAtPut: owners are never registered, so an owner whose
// first appearance is a Put — one far above every id used so far, then one
// in the gap it skipped — is held to the bound like any other, and the ids
// nobody used hold nothing.
func TestOwnerFirstSeenAtPut(t *testing.T) {
	tab := NewTable[struct{}](8)
	for k := uint64(0); k < 3; k++ {
		tab.Put(0, k, struct{}{}, 1000, 0)
	}
	const late, gap = 1000, 500
	if _, _, ok := tab.Get(late, 1, 0); ok {
		t.Fatal("an owner nobody has written holds an entry")
	}
	for k := uint64(0); k < 100; k++ {
		tab.Put(late, k, struct{}{}, 1000, 0)
	}
	for k := uint64(0); k < 20; k++ {
		tab.PutNegative(gap, k, 1000, 0)
	}
	for _, o := range []struct{ id, want int }{{0, 3}, {1, 0}, {gap, 8}, {late, 8}} {
		live := 0
		for k := uint64(0); k < 100; k++ {
			if _, _, ok := tab.Get(o.id, k, 1); ok {
				live++
			}
		}
		if live != o.want || tab.held(o.id) != o.want {
			t.Errorf("owner %d: %d live entries, %d counted, want %d", o.id, live, tab.held(o.id), o.want)
		}
	}
}

// TestEvictionDeterministic replays one operation sequence at bound 8
// twenty times: the victim is chosen from the table's layout, so every
// replay must leave the same survivors and have given the same answers.
// (The map-backed cache this replaces drew victims from Go's randomized
// map iteration, and evicting a live entry changes later answers.)
func TestEvictionDeterministic(t *testing.T) {
	run := func() string {
		c := New(8)
		st := rng.New(3)
		var log []byte
		for op := 0; op < 4000; op++ {
			key := uint64(st.Intn(64))
			now := simtime.Time(op)
			if st.Bool(0.5) {
				c.Put(key, "v", simtime.Duration(20+st.Intn(200)), now)
			} else if _, ok := c.Get(key, now); ok {
				log = append(log, '1')
			} else {
				log = append(log, '0')
			}
		}
		survivors := ""
		for key := uint64(0); key < 64; key++ {
			if _, ok := c.Get(key, 4000); ok {
				survivors += fmt.Sprint(key, " ")
			}
		}
		return survivors + string(log)
	}
	want := run()
	for i := 1; i < 20; i++ {
		if got := run(); got != want {
			t.Fatalf("replay %d diverged from the first run", i)
		}
	}
}

func BenchmarkTableGetHit(b *testing.B) {
	tab := NewTable[struct{}](2048)
	const owners, keys = 4096, 16
	for o := 0; o < owners; o++ {
		for k := uint64(0); k < keys; k++ {
			tab.Put(o, 1<<40|k, struct{}{}, 1<<40, 0)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tab.Get(i%owners, 1<<40|uint64(i%keys), 1)
	}
}
