package cache

import (
	"testing"

	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
)

func TestPutGet(t *testing.T) {
	c := New(0)
	c.Put(1001, "spam.bad.jp", 3600, 100)
	e, ok := c.Get(1001, 200)
	if !ok || e.Value != "spam.bad.jp" || e.Negative {
		t.Errorf("got %+v, %v", e, ok)
	}
}

func TestExpiry(t *testing.T) {
	c := New(0)
	c.Put(7, "v", 60, 100)
	if _, ok := c.Get(7, 159); !ok {
		t.Error("entry expired early")
	}
	if _, ok := c.Get(7, 160); ok {
		t.Error("entry alive at exact expiry instant")
	}
	// The expired entry must have been swept.
	if c.Len() != 0 {
		t.Errorf("Len = %d after expiry sweep", c.Len())
	}
}

func TestNegativeCaching(t *testing.T) {
	c := New(0)
	c.PutNegative(42, 300, 0)
	e, ok := c.Get(42, 299)
	if !ok || !e.Negative {
		t.Errorf("negative entry: %+v, %v", e, ok)
	}
	if _, ok := c.Get(42, 300); ok {
		t.Error("negative entry outlived TTL")
	}
}

func TestZeroTTLDisablesCaching(t *testing.T) {
	c := New(0)
	c.Put(7, "v", 0, 100)
	if _, ok := c.Get(7, 100); ok {
		t.Error("zero TTL entry stored")
	}
	// Zero-TTL put also clears a previous entry (fresh answer supersedes).
	c.Put(7, "v", 100, 100)
	c.Put(7, "v2", 0, 110)
	if _, ok := c.Get(7, 111); ok {
		t.Error("zero TTL put did not clear prior entry")
	}
	c.PutNegative(8, 0, 100)
	if _, ok := c.Get(8, 100); ok {
		t.Error("zero TTL negative entry stored")
	}
}

func TestOverwrite(t *testing.T) {
	c := New(0)
	c.Put(7, "old", 100, 0)
	c.Put(7, "new", 100, 50)
	e, _ := c.Get(7, 100)
	if e.Value != "new" {
		t.Errorf("value = %q", e.Value)
	}
	if !e.Expires.After(140) {
		t.Error("overwrite did not refresh expiry")
	}
}

func TestCapacityBound(t *testing.T) {
	c := New(10)
	for i := 0; i < 100; i++ {
		c.Put(uint64(i), "v", 1000, 0)
	}
	if c.Len() > 10 {
		t.Errorf("Len = %d exceeds capacity 10", c.Len())
	}
}

func TestEvictionPrefersExpired(t *testing.T) {
	c := New(4)
	c.Put(101, "v", 1000, 0)
	c.Put(102, "v", 1000, 0)
	c.Put(201, "v", 10, 0)
	c.Put(202, "v", 10, 0)
	// At time 500 the dead entries are expired; inserting two new keys
	// should evict them, keeping both live entries.
	c.Put(301, "v", 1000, 500)
	c.Put(302, "v", 1000, 500)
	for _, k := range []uint64{101, 102, 301, 302} {
		if _, ok := c.Get(k, 500); !ok {
			t.Errorf("live entry %d evicted while expired entries existed", k)
		}
	}
}

func TestOverwriteAtCapacityKeepsKey(t *testing.T) {
	c := New(2)
	c.Put(1, "1", 1000, 0)
	c.Put(2, "2", 1000, 0)
	c.Put(1, "3", 1000, 0) // overwrite must not force an eviction
	if c.Len() != 2 {
		t.Errorf("Len = %d, want 2", c.Len())
	}
	ea, okA := c.Get(1, 1)
	_, okB := c.Get(2, 1)
	if !okA || ea.Value != "3" || !okB {
		t.Error("overwrite at capacity lost an entry")
	}
}

func BenchmarkGetHit(b *testing.B) {
	c := New(0)
	c.Put(1001, "x.example.jp", simtime.Duration(1<<40), 0)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Get(1001, 1)
	}
}

func BenchmarkPut(b *testing.B) {
	c := New(1 << 16)
	keys := make([]uint64, 1024)
	for i := range keys {
		keys[i] = uint64(i)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Put(keys[i%len(keys)], "v", 1000, simtime.Time(i))
	}
}

// TestTierMetrics pins the per-tier cache counters: keys tagged with the
// shared tier scheme (1=ptr, 2=z8, 3=z16 in bits 40+) count under their
// tier label; untagged keys fall into "other".
func TestTierMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	c := New(2)
	c.SetMetrics(reg, "test")

	ptr := uint64(1)<<40 | 7
	z8 := uint64(2)<<40 | 100
	c.Put(ptr, "a", 60, 0)       // fills slot 1
	c.Get(ptr, 10)               // ptr hit
	c.Get(z8, 10)                // z8 miss
	c.PutNegative(z8, 60, 0)     // fills slot 2
	c.Get(z8, 10)                // z8 negative hit
	c.Put(uint64(9), "b", 60, 0) // over capacity: evicts one entry
	c.Get(ptr, 100)              // expired: ptr miss (if still resident)

	get := func(name, tier string) uint64 {
		t.Helper()
		return reg.Counter(name, obs.L("cache", "test"), obs.L("tier", tier)).Value()
	}
	if got := get("cache_hits_total", "ptr"); got != 1 {
		t.Errorf("ptr hits = %d, want 1", got)
	}
	if got := get("cache_hits_total", "z8"); got != 1 {
		t.Errorf("z8 hits = %d, want 1", got)
	}
	if got := get("cache_negative_hits_total", "z8"); got != 1 {
		t.Errorf("z8 negative hits = %d, want 1", got)
	}
	if got := get("cache_misses_total", "z8"); got != 1 {
		t.Errorf("z8 misses = %d, want 1", got)
	}
	evictions := reg.Counter("cache_evictions_total", obs.L("cache", "test")).Value()
	if evictions != 1 {
		t.Errorf("evictions = %d, want 1", evictions)
	}
	// A read at or past expiry is a miss, not a hit.
	z16 := uint64(3)<<40 | 5
	c.Put(z16, "c", 60, 0)
	if _, ok := c.Get(z16, 60); ok {
		t.Error("entry read at its expiry instant")
	}
	if hit, miss := get("cache_hits_total", "z16"), get("cache_misses_total", "z16"); hit != 0 || miss != 1 {
		t.Errorf("expired z16 read counted %d hits and %d misses, want 0 and 1", hit, miss)
	}
	// Uninstrumenting stops counting without touching entries.
	c.SetMetrics(nil, "")
	c.Get(ptr, 10)
	if got := get("cache_hits_total", "ptr") + get("cache_misses_total", "ptr"); got > 3 {
		t.Errorf("uninstrumented cache still counting: %d", got)
	}
}
