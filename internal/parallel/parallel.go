// Package parallel runs batches of independent work items across a
// bounded worker pool with a deterministic, index-ordered merge.
//
// The Figure 2 pipeline is embarrassingly parallel along three axes —
// per originator (feature extraction), per tree (forest training), and
// per fold (validation) — but the repository's determinism contract
// (see ARCHITECTURE.md) requires that the worker count never change any
// output byte. This package supplies the safe building block: work is
// identified by index, results land at their index, and callers derive
// any per-item randomness from seeded rng streams *before* fan-out, so
// scheduling order cannot leak into results.
//
// A Pool with Workers <= 0 uses runtime.GOMAXPROCS(0); Workers == 1 runs
// the plain sequential loop (no goroutines). Panics inside workers are
// captured and re-raised on the calling goroutine.
//
// When a Pool carries an obs registry and stage name, every batch
// records parallel_shards_total{stage=...} (the number of work items —
// a data property, identical for every worker count) and tracks live
// workers in the parallel_workers{stage=...} gauge, which returns to
// zero when the batch completes so snapshots stay byte-identical across
// worker counts.
//
// A Pool may also carry a prof.Accountant. Unlike the obs registry,
// the accountant records scheduling-dependent readings (worker
// high-water marks, shard counts per batch) on the ops channel; it
// never touches deterministic artifacts. A nil Acct costs nothing.
package parallel

import (
	"runtime"
	"sync"
	"sync/atomic"

	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/prof"
)

// Workers resolves a requested worker count: n if positive, otherwise
// runtime.GOMAXPROCS(0).
func Workers(n int) int {
	if n > 0 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// Pool describes how to run a batch of independent work items. The zero
// value is valid: GOMAXPROCS workers, no instrumentation.
type Pool struct {
	// Workers bounds concurrent goroutines; <= 0 means GOMAXPROCS(0)
	// and 1 runs inline on the calling goroutine.
	Workers int
	// Obs, when non-nil together with Stage, receives the batch metrics
	// (parallel_shards_total counter, parallel_workers gauge).
	Obs *obs.Registry
	// Stage labels the metrics, e.g. "extract" or "train".
	Stage string
	// Acct, when non-nil together with Stage, accumulates per-stage
	// resource accounting (shard counts, concurrent-worker peaks) on the
	// ops channel — see internal/prof.
	Acct *prof.Accountant
}

// Map runs fn over [0, n) under the pool and returns the results in
// index order — the deterministic merge: results[i] is fn(i) no matter
// which worker computed it or when.
func Map[T any](p Pool, n int, fn func(i int) T) []T {
	out := make([]T, n)
	p.Each(n, func(i int) { out[i] = fn(i) })
	return out
}

// Each runs fn(i) for every i in [0, n), using at most p.Workers
// goroutines, the caller's among them. It returns when all items
// completed. A panic in any item is re-raised on the calling goroutine
// after the remaining workers drain. fn must not depend on execution
// order.
func (p Pool) Each(n int, fn func(i int)) { p.run(n, fn, nil) }

// EachRange is Each for items that are cheaper in runs: fn(lo, hi) covers
// the items [lo, hi), and the runs cover [0, n) once each. Metrics count
// items, as Each's do, whatever the runs.
func (p Pool) EachRange(n int, fn func(lo, hi int)) { p.run(n, nil, fn) }

// run is Each with one of item and span set.
func (p Pool) run(n int, item func(i int), span func(lo, hi int)) {
	if n <= 0 {
		return
	}
	var gauge *obs.Gauge
	var sacct *prof.StageAcct
	if p.Stage != "" {
		p.Obs.Counter("parallel_shards_total", obs.L("stage", p.Stage)).Add(uint64(n))
		gauge = p.Obs.Gauge("parallel_workers", obs.L("stage", p.Stage))
		sacct = p.Acct.Stage(p.Stage)
		sacct.AddShards(uint64(n))
	}

	w := min(Workers(p.Workers), n)
	if w == 1 {
		// Sequential path: the plain loop, no goroutines.
		gauge.Add(1)
		defer gauge.Add(-1)
		sacct.EnterWorker()
		defer sacct.LeaveWorker()
		do(item, span, 0, n)
		return
	}
	// The caller works a share and starts w-1 goroutines. Chunks amortize
	// the cursor for cheap items while keeping the tail balanced.
	b := &batch{n: n, chunk: max(1, n/(w*4)), item: item, span: span, gauge: gauge, sacct: sacct}
	b.wg.Add(w - 1)
	worker := func() {
		defer b.wg.Done()
		b.work()
	}
	for range w - 1 {
		go worker()
	}
	b.work()
	b.wg.Wait()
	if b.pVal != nil {
		panic(b.pVal)
	}
}

// batch is one fanned-out call's shared state. Workers claim chunks of
// consecutive indices from an atomic cursor; results are keyed by index,
// so the claim order never shows in any output.
type batch struct {
	n, chunk int
	item     func(i int)
	span     func(lo, hi int)
	gauge    *obs.Gauge
	sacct    *prof.StageAcct

	cursor atomic.Int64
	stop   atomic.Bool
	wg     sync.WaitGroup
	pOnce  sync.Once
	pVal   any
}

// do runs the items [lo, hi) through whichever of item and span is set.
func do(item func(i int), span func(lo, hi int), lo, hi int) {
	if span != nil {
		span(lo, hi)
		return
	}
	for i := lo; i < hi; i++ {
		item(i)
	}
}

// work claims and runs chunks until none is left or an item panicked,
// whose value it keeps for the caller to re-raise.
func (b *batch) work() {
	b.gauge.Add(1)
	defer b.gauge.Add(-1)
	b.sacct.EnterWorker()
	defer b.sacct.LeaveWorker()
	defer func() {
		if r := recover(); r != nil {
			b.pOnce.Do(func() { b.pVal = r })
			b.stop.Store(true)
		}
	}()
	for !b.stop.Load() {
		hi := int(b.cursor.Add(int64(b.chunk)))
		lo := hi - b.chunk
		if lo >= b.n {
			return
		}
		do(b.item, b.span, lo, min(hi, b.n))
	}
}
