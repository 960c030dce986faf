package parallel

import (
	"bytes"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"dnsbackscatter/internal/obs"
)

func TestWorkersResolution(t *testing.T) {
	if got := Workers(0); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(0) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(-3); got != runtime.GOMAXPROCS(0) {
		t.Errorf("Workers(-3) = %d, want GOMAXPROCS %d", got, runtime.GOMAXPROCS(0))
	}
	if got := Workers(5); got != 5 {
		t.Errorf("Workers(5) = %d", got)
	}
}

// TestMapOrderedMerge checks results land at their index for every worker
// count, including counts far above the item count.
func TestMapOrderedMerge(t *testing.T) {
	const n = 137
	for _, w := range []int{1, 2, 3, 8, 64, 1000} {
		got := Map(Pool{Workers: w}, n, func(i int) int { return i * i })
		for i, v := range got {
			if v != i*i {
				t.Fatalf("workers=%d: result[%d] = %d, want %d", w, i, v, i*i)
			}
		}
	}
}

// TestMapWorkerCountInvariant is the package's core contract: the same
// inputs produce identical outputs under any parallelism.
func TestMapWorkerCountInvariant(t *testing.T) {
	const n = 301
	fn := func(i int) string { return fmt.Sprintf("item-%03d", i*7%n) }
	seq := Map(Pool{Workers: 1}, n, fn)
	for _, w := range []int{2, 4, 8} {
		par := Map(Pool{Workers: w}, n, fn)
		for i := range seq {
			if par[i] != seq[i] {
				t.Fatalf("workers=%d: result[%d] = %q, want %q", w, i, par[i], seq[i])
			}
		}
	}
}

func TestEachRunsEveryItemOnce(t *testing.T) {
	for _, w := range []int{1, 4} {
		const n = 500
		var counts [n]atomic.Int32
		Pool{Workers: w}.Each(n, func(i int) { counts[i].Add(1) })
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", w, i, c)
			}
		}
	}
}

func TestEachZeroItems(t *testing.T) {
	Pool{Workers: 4}.Each(0, func(int) { t.Error("fn called for empty batch") })
}

// TestPanicPropagation panics at item 37 and at item 0, which the
// caller's own share claims first: either way the panic is re-raised
// once, on the caller, after every other worker has stopped.
func TestPanicPropagation(t *testing.T) {
	for _, w := range []int{1, 4} {
		for _, at := range []int{37, 0} {
			var running atomic.Int32
			func() {
				defer func() {
					r := recover()
					if r == nil {
						t.Fatalf("workers=%d: panic at %d did not propagate", w, at)
					}
					if s, ok := r.(string); !ok || s != "boom" {
						t.Fatalf("workers=%d: recovered %v, want \"boom\"", w, r)
					}
					if n := running.Load(); n != 0 {
						t.Fatalf("workers=%d: re-raised with %d items still running", w, n)
					}
				}()
				Pool{Workers: w}.Each(100, func(i int) {
					running.Add(1)
					defer running.Add(-1)
					if i == at {
						panic("boom")
					}
					time.Sleep(time.Millisecond)
				})
			}()
		}
	}
}

// TestEachRangeCoversItems checks the runs of EachRange cover every item
// once, and that its metrics count items, not runs.
func TestEachRangeCoversItems(t *testing.T) {
	for _, w := range []int{1, 3, 8} {
		const n = 211
		var counts [n]atomic.Int32
		reg := obs.NewRegistry()
		Pool{Workers: w, Obs: reg, Stage: "classify"}.EachRange(n, func(lo, hi int) {
			if lo >= hi {
				t.Errorf("workers=%d: empty run [%d, %d)", w, lo, hi)
			}
			for i := lo; i < hi; i++ {
				counts[i].Add(1)
			}
		})
		for i := range counts {
			if c := counts[i].Load(); c != 1 {
				t.Fatalf("workers=%d: item %d ran %d times", w, i, c)
			}
		}
		if c := reg.Counter("parallel_shards_total", obs.L("stage", "classify")).Value(); c != n {
			t.Errorf("workers=%d: parallel_shards_total = %d, want %d", w, c, n)
		}
	}
}

// TestObsInstrumentation checks the batch metrics: the shard counter
// counts work items (a data property), and the worker gauge returns to
// zero, so registry snapshots stay byte-identical across worker counts.
func TestObsInstrumentation(t *testing.T) {
	snap := func(w int) []byte {
		reg := obs.NewRegistry()
		Pool{Workers: w, Obs: reg, Stage: "extract"}.Each(42, func(int) {})
		if c := reg.Counter("parallel_shards_total", obs.L("stage", "extract")).Value(); c != 42 {
			t.Errorf("workers=%d: parallel_shards_total = %d, want 42", w, c)
		}
		if g := reg.Gauge("parallel_workers", obs.L("stage", "extract")).Value(); g != 0 {
			t.Errorf("workers=%d: parallel_workers after batch = %d, want 0", w, g)
		}
		return reg.SnapshotJSON()
	}
	a, b := snap(1), snap(8)
	if !bytes.Equal(a, b) {
		t.Errorf("registry snapshots differ between worker counts:\n%s\n----\n%s", a, b)
	}
}

// TestNoInstrumentationWithoutStage ensures unnamed batches record
// nothing even with a registry attached.
func TestNoInstrumentationWithoutStage(t *testing.T) {
	reg := obs.NewRegistry()
	Pool{Workers: 2, Obs: reg}.Each(10, func(int) {})
	if got := reg.Snapshot(); len(got) != 0 {
		t.Errorf("unnamed batch recorded metrics:\n%s", got)
	}
}
