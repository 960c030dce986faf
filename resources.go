package backscatter

import (
	"dnsbackscatter/internal/prof"
)

// Resource-observatory re-exports, mirroring the obs aliases in
// observe.go. Unlike the deterministic obs registry, the accountant's
// readings (alloc deltas, GC cycles, goroutine and worker peaks) depend
// on scheduling and GC timing — they travel on a separate ops channel
// (Resources / ResourceReport) and never enter snapshots, traces, or
// time series. See Instruments for attaching an accountant to a
// simulated dataset.
type (
	// Accountant accumulates per-stage resource accounting for the
	// Figure 2 pipeline; every method on a nil Accountant is a no-op,
	// so accounting costs one nil check when disabled.
	Accountant = prof.Accountant
	// ResourceReport is an accountant snapshot: one row per pipeline
	// stage, sorted by stage name.
	ResourceReport = prof.ResourceReport
	// StageStats is one stage's row in a ResourceReport.
	StageStats = prof.StageStats
)

// NewAccountant returns an empty resource accountant; attach it with
// BuildWith.
func NewAccountant() *Accountant { return prof.New() }

// Resources snapshots the per-stage resource accounting recorded so far
// on this dataset's accountant. Without one the report is empty.
func (d *Dataset) Resources() ResourceReport { return d.acct.Report() }

// Accountant returns the accountant this dataset records into, or nil
// when the dataset was built without one.
func (d *Dataset) Accountant() *Accountant { return d.acct }

// StableGoroutines reports the goroutine count after letting background
// goroutines wind down (cooperative yields only — no wall-clock waits),
// for leak checks around pipeline runs.
func StableGoroutines() int { return prof.StableGoroutines() }
