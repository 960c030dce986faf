package backscatter

import (
	"dnsbackscatter/internal/obs"
	"dnsbackscatter/internal/trace"
)

// Observability re-exports, so tools and library users reach the obs layer
// without importing internal packages. See BuildObserved for attaching a
// registry to a simulated dataset.
type (
	// Registry collects labeled counters, gauges, histograms, and
	// pipeline-stage spans; snapshots are byte-deterministic.
	Registry = obs.Registry
)

// NewRegistry returns an empty metric registry with no span clock (install
// one with SetClock; obs.TickClock keeps runs reproducible).
func NewRegistry() *Registry { return obs.NewRegistry() }

// Tracer returns the tracer this dataset's lookups recorded into, or nil
// when the dataset was built without tracing.
func (d *Dataset) Tracer() *trace.Tracer { return d.tracer }
