package backscatter

import (
	"dnsbackscatter/internal/prof"
)

// Accountant accumulates per-stage resource accounting for the Figure 2
// pipeline; every method on a nil Accountant is a no-op, so accounting
// costs one nil check when disabled. Unlike the deterministic obs
// registry, its readings (alloc deltas, GC cycles, goroutine and worker
// peaks) depend on scheduling and GC timing — they travel on a separate
// ops channel (Accountant.Report) and never enter snapshots, traces, or
// time series. See Instruments for attaching one to a simulated dataset.
type Accountant = prof.Accountant

// NewAccountant returns an empty resource accountant; attach it with
// BuildWith.
func NewAccountant() *Accountant { return prof.New() }
