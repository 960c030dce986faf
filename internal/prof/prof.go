// Package prof is the reproduction's resource observatory: per-stage
// accounting of memory, garbage collection, and goroutine consumption.
//
// The paper's pipeline only matters at scale — billions of reverse
// queries at B-Root and DITL — so the reproduction needs to know which
// Figure 2 stage owns the bytes, the allocations, and the goroutines,
// not just how long each stage took (package obs already times spans).
// prof supplies that missing axis: an Accountant wraps pipeline stages
// and captures runtime.MemStats deltas (allocated bytes, mallocs/frees,
// GC cycles), heap and goroutine high-water marks, and the parallel
// fan-out (shards dispatched, peak concurrent workers) per stage.
// Profiles are read with `go tool pprof` from the benchmarks or from a
// live server's /debug/pprof/ handlers.
//
// Resource readings are scheduling-dependent by nature: how many bytes
// a stage allocates before the GC runs, or how many goroutines coexist,
// varies run to run and with the worker count. Accountant output is
// therefore an *ops* channel, reported through ResourceReport only —
// it must never be folded into the byte-deterministic artifacts
// (obs.Snapshot, trace JSONL, windowed series), the same split
// obs.Window draws between totals and scheduling-free buckets. A test
// at the repository root pins that building with an Accountant leaves
// every deterministic artifact byte-identical.
//
// Nil-safety follows the obs contract: every method on a nil
// *Accountant or *StageAcct is a no-op, and a Token from a nil stage
// ends for free, so instrumented hot paths pay one nil check — zero
// allocations — when accounting is off.
package prof

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Accountant accumulates per-stage resource accounting. Stage handles
// are idempotent (the same name always returns the same *StageAcct), so
// any subsystem may resolve its handles independently. A nil
// *Accountant is a valid "accounting off" value: Stage returns a nil
// handle and every operation on it is a no-op.
type Accountant struct {
	mu     sync.Mutex
	stages map[string]*StageAcct // guarded by mu
}

// New returns an empty accountant.
func New() *Accountant {
	return &Accountant{stages: make(map[string]*StageAcct)}
}

// StageAcct accumulates one stage's resource accounting on atomics, so
// concurrent stage executions and worker notes never contend on a lock.
// Obtain handles with Accountant.Stage; a nil *StageAcct discards
// everything.
type StageAcct struct {
	name       string
	calls      atomic.Uint64
	allocBytes atomic.Uint64
	mallocs    atomic.Uint64
	frees      atomic.Uint64
	gcCycles   atomic.Uint64
	heapPeak   atomic.Uint64
	goroPeak   atomic.Int64
	shards     atomic.Uint64
	liveWork   atomic.Int64
	workPeak   atomic.Int64
}

// Stage returns (creating if needed) the accounting handle for a stage
// name, or nil on a nil accountant.
func (a *Accountant) Stage(name string) *StageAcct {
	if a == nil {
		return nil
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	s, ok := a.stages[name]
	if !ok {
		s = &StageAcct{name: name}
		a.stages[name] = s
	}
	return s
}

// Start begins accounting one execution of the named stage; close the
// returned token with End. On a nil accountant it returns the free
// no-op token.
func (a *Accountant) Start(stage string) Token {
	return a.Stage(stage).Start()
}

// Token is one in-flight stage execution. The zero Token (from a nil
// accountant or stage) ends for free.
type Token struct {
	sa         *StageAcct
	startAlloc uint64
	startMall  uint64
	startFrees uint64
	startGC    uint32
	startHeap  uint64
	startGoro  int
}

// Start begins accounting one stage execution: it samples
// runtime.MemStats and the goroutine count now, and End charges the
// deltas to the stage. Readings are process-global, so two overlapping
// executions each see the full process delta — per-stage numbers are an
// attribution of interest, not a partition (document overlap when
// stages nest).
func (s *StageAcct) Start() Token {
	if s == nil {
		return Token{}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Token{
		sa:         s,
		startAlloc: ms.TotalAlloc,
		startMall:  ms.Mallocs,
		startFrees: ms.Frees,
		startGC:    ms.NumGC,
		startHeap:  ms.HeapAlloc,
		startGoro:  runtime.NumGoroutine(),
	}
}

// End closes the token: one call, the MemStats deltas since Start, and
// the heap/goroutine high-water marks observed at the two sample
// points are charged to the stage.
func (t Token) End() {
	if t.sa == nil {
		return
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	t.sa.calls.Add(1)
	t.sa.allocBytes.Add(ms.TotalAlloc - t.startAlloc)
	t.sa.mallocs.Add(ms.Mallocs - t.startMall)
	t.sa.frees.Add(ms.Frees - t.startFrees)
	t.sa.gcCycles.Add(uint64(ms.NumGC - t.startGC))
	heap := ms.HeapAlloc
	if t.startHeap > heap {
		heap = t.startHeap
	}
	maxUint(&t.sa.heapPeak, heap)
	goro := runtime.NumGoroutine()
	if t.startGoro > goro {
		goro = t.startGoro
	}
	maxInt(&t.sa.goroPeak, int64(goro))
}

// AddShards records n parallel work items dispatched for the stage (the
// parallel pool calls this once per batch; n is a data property,
// identical at every worker count).
func (s *StageAcct) AddShards(n uint64) {
	if s != nil {
		s.shards.Add(n)
	}
}

// EnterWorker notes one worker goroutine joining the stage, updating
// the peak-concurrency high-water mark. Pair with LeaveWorker.
func (s *StageAcct) EnterWorker() {
	if s == nil {
		return
	}
	live := s.liveWork.Add(1)
	maxInt(&s.workPeak, live)
	maxInt(&s.goroPeak, int64(runtime.NumGoroutine()))
}

// LeaveWorker notes one worker goroutine leaving the stage.
func (s *StageAcct) LeaveWorker() {
	if s != nil {
		s.liveWork.Add(-1)
	}
}

// maxUint lifts v into the atomic max register.
func maxUint(m *atomic.Uint64, v uint64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// maxInt lifts v into the atomic max register.
func maxInt(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// StableGoroutines returns the goroutine count after letting exiting
// goroutines drain: it yields to the scheduler repeatedly and returns
// once the count has stopped shrinking for a stretch of rounds. Use it
// to bracket leak checks — a worker pool's goroutines call wg.Done
// slightly before they exit, so a raw NumGoroutine read right after a
// run can transiently overcount.
func StableGoroutines() int {
	cur := runtime.NumGoroutine()
	stable := 0
	for i := 0; i < 2000 && stable < 20; i++ {
		runtime.Gosched()
		if n := runtime.NumGoroutine(); n < cur {
			cur, stable = n, 0
		} else {
			stable++
		}
	}
	return cur
}
