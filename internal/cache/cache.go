// Package cache implements the TTL caches of recursive resolvers.
//
// DNS caching is the dominant attenuator of backscatter (§II, §IV-D):
// whether an authority sees a reverse query at all depends on what the
// querier's resolver still holds — the final PTR record, or any NS
// delegation along the in-addr.arpa chain. Entries are positive or
// negative (NXDomain results are cached too, per RFC 2308), run on the
// simulator's explicit clock, and are bounded per owner with
// expired-first eviction.
//
// Table is the store itself, shared by all simulated resolvers of a
// shard; Cache is one resolver's private table that also keeps the cached
// values, which the live recursor answers from. A world's shard tables
// get a horizon, the start of the day being resolved, and sweep out what
// expired by it before they grow: they hold what can still be read.
package cache

import (
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/simtime"
)

// Entry is a cached DNS result.
type Entry struct {
	Value    string // e.g. a PTR target or NS hostname; empty for negative
	Negative bool   // NXDomain / NODATA result
	Expires  simtime.Time
}

// Cache is a TTL cache with bounded size, keyed by compact uint64 zone/
// record identifiers (resolvers issue millions of lookups, so keys avoid
// string construction). It is not safe for concurrent use.
type Cache struct {
	t *Table[string]
}

// New returns a cache holding at most max entries. max <= 0 means
// unbounded.
func New(max int) *Cache {
	return &Cache{t: newTable[string](max, 64)}
}

// SetMetrics instruments the cache under cache_*_total{cache=name}; see
// Table.SetMetrics.
func (c *Cache) SetMetrics(reg *obs.Registry, name string) { c.t.SetMetrics(reg, name) }

// Get returns the live entry for key at time now. Expired entries are
// removed and reported as misses.
func (c *Cache) Get(key uint64, now simtime.Time) (Entry, bool) {
	s := c.t.live(0, key, now)
	if s == nil {
		return Entry{}, false
	}
	return Entry{Value: s.val, Negative: s.negative(), Expires: s.expires()}, true
}

// Put stores a positive entry with the given TTL. A TTL <= 0 stores
// nothing and clears any previous entry.
func (c *Cache) Put(key uint64, value string, ttl simtime.Duration, now simtime.Time) {
	c.t.Put(0, key, value, ttl, now)
}

// PutNegative stores an NXDomain result for the negative-cache TTL.
func (c *Cache) PutNegative(key uint64, ttl simtime.Duration, now simtime.Time) {
	c.t.PutNegative(0, key, ttl, now)
}

// Len returns the number of stored entries, counting expired-but-unswept.
func (c *Cache) Len() int { return c.t.used }
