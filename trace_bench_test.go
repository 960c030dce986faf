// Tracing-overhead benchmarks: the PR 5 performance bar. The resolver
// hot path is benchmarked with tracing disabled (nil tracer — must not
// allocate for tracing and stay within noise of the untraced baseline),
// head-sampled at 1/64, and tracing every lookup. Ring capacity is
// bounded as a live server would, so memory stays flat at any b.N.
package backscatter_test

import (
	"testing"

	"dnsbackscatter/internal/dnssim"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
	"dnsbackscatter/internal/trace"
)

// benchResolve drives the resolver path over a spread of originators so
// cache hits and full root→national→final walks both appear, as in a
// real run.
func benchResolve(b *testing.B, tr *trace.Tracer) {
	b.Helper()
	g := geo.NewRegistry(1)
	cfg := dnssim.DefaultConfig()
	cfg.Tracer = tr
	h := dnssim.NewHierarchy(g, cfg, nil)
	r := dnssim.NewResolver(ipaddr.MustParse("10.1.2.3"), 0.2, 0.5, 2048, rng.New(7))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		orig := ipaddr.Addr(uint64(i)*2654435761 + 17)
		h.Resolve(r, orig, simtime.Time(1_400_000_000+i))
	}
}

func BenchmarkTraceOverhead(b *testing.B) {
	b.Run("off", func(b *testing.B) { benchResolve(b, nil) })
	b.Run("sampled", func(b *testing.B) {
		tr := trace.New(1, 64)
		tr.SetMax(4096)
		benchResolve(b, tr)
	})
	b.Run("full", func(b *testing.B) {
		tr := trace.New(1, 1)
		tr.SetMax(4096)
		benchResolve(b, tr)
	})
}
