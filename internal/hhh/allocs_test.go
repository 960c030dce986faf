package hhh

import (
	"testing"

	"dnsbackscatter/internal/ipaddr"
)

// TestSummaryAllocs holds a level summary's update to no allocation once
// its eviction heap exists: each run one of 64 hot prefixes seen again,
// which sifts the heap, and a newcomer, which evicts the minimum and takes
// its slot. AllocsPerRun averages over its runs, so the occasional growth
// of the prefix index cannot fail a correct update, and a fmt.Sprint can.
// Sketch.Fold is held the same way over whole runs.
func TestSummaryAllocs(t *testing.T) {
	s := New(64, 1)
	su := &s.levels[0]
	next := uint32(0)
	update := func() {
		su.add(next%64, 1000, s.seed, 0)
		su.add(1<<20+next, 1, s.seed, 0)
		next++
	}
	for range 1000 {
		update()
	}
	if len(su.heap) == 0 {
		t.Fatal("no eviction heap after 1000 newcomers into 64 slots")
	}
	if n := testing.AllocsPerRun(1000, update); n != 0 {
		t.Errorf("summary.add allocates %v times a sift and an eviction, want 0", n)
	}
	siftAll := func() {
		for i := range su.heap {
			su.siftDown(i)
		}
	}
	if n := testing.AllocsPerRun(100, siftAll); n != 0 {
		t.Errorf("summary.siftDown allocates %v times in 64 calls, want 0", n)
	}
	// A fold of the same shape at every level: 64 hot addresses and 64
	// newcomers, which evict at the /32 and /24 levels.
	run := make([]ipaddr.Addr, 128)
	fold := func() {
		for i := range 64 {
			run[2*i] = ipaddr.Addr(i)
			run[2*i+1] = ipaddr.Addr(1<<20 + next<<8)
			next++
		}
		s.Fold(run)
	}
	for range 100 {
		fold()
	}
	if n := testing.AllocsPerRun(100, fold); n != 0 {
		t.Errorf("Sketch.Fold allocates %v times a 128-address run, want 0", n)
	}
}
