// Benchmark harness: one benchmark per table and figure of the paper's
// evaluation, each regenerating the corresponding result from simulated
// datasets via internal/report.
//
// Run everything (and print the regenerated tables) with:
//
//	go test -bench=. -benchmem -v
//
// BS_SCALE scales dataset populations (default 0.35 — laptop-friendly;
// 1.0 reproduces the spec defaults). BS_HEAVY=1 adds the most expensive
// trial points (the 10% controlled scan of Figure 4, 50-run validation).
//
// Benchmarked time includes the analysis and any first-touch dataset
// build; datasets are cached across benchmarks within one run, so the
// first benchmark touching a dataset pays its simulation cost.
package backscatter_test

import (
	"fmt"
	"os"
	"strconv"
	"sync"
	"testing"

	"dnsbackscatter/internal/report"
)

var (
	storeOnce  sync.Once
	benchStore *report.Store
)

func store() *report.Store {
	storeOnce.Do(func() {
		scale := 0.35
		if s := os.Getenv("BS_SCALE"); s != "" {
			if v, err := strconv.ParseFloat(s, 64); err == nil && v > 0 {
				scale = v
			}
		}
		benchStore = report.NewStore(scale)
		benchStore.Heavy = os.Getenv("BS_HEAVY") == "1"
	})
	return benchStore
}

// runExperiment drives one named experiment; with -v the regenerated
// table/figure is printed so a bench run doubles as a reproduction run.
func runExperiment(b *testing.B, name string) {
	b.Helper()
	e, ok := report.Find(name)
	if !ok {
		b.Fatalf("unknown experiment %q", name)
	}
	s := store()
	var out string
	for i := 0; i < b.N; i++ {
		out = e.Run(s).String()
	}
	if testing.Verbose() {
		fmt.Println(out)
	}
	if len(out) == 0 {
		b.Fatal("experiment produced no output")
	}
}

// Table and figure reproductions, in paper order.

func BenchmarkTable1Datasets(b *testing.B)            { runExperiment(b, "table1") }
func BenchmarkFigure3StaticFeatures(b *testing.B)     { runExperiment(b, "figure3") }
func BenchmarkTable2DynamicFeatures(b *testing.B)     { runExperiment(b, "table2") }
func BenchmarkTable3Validation(b *testing.B)          { runExperiment(b, "table3") }
func BenchmarkTable4FeatureImportance(b *testing.B)   { runExperiment(b, "table4") }
func BenchmarkFigure4Attenuation(b *testing.B)        { runExperiment(b, "figure4") }
func BenchmarkFigure5BenignStability(b *testing.B)    { runExperiment(b, "figure5") }
func BenchmarkFigure6MaliciousChurn(b *testing.B)     { runExperiment(b, "figure6") }
func BenchmarkFigure7TrainingStrategies(b *testing.B) { runExperiment(b, "figure7") }
func BenchmarkFigure8ConsistencyCDF(b *testing.B)     { runExperiment(b, "figure8") }
func BenchmarkFigure9Footprints(b *testing.B)         { runExperiment(b, "figure9") }
func BenchmarkFigure10TopNClasses(b *testing.B)       { runExperiment(b, "figure10") }
func BenchmarkTable5ClassCounts(b *testing.B)         { runExperiment(b, "table5") }
func BenchmarkTable6GroundTruth(b *testing.B)         { runExperiment(b, "table6") }
func BenchmarkFigure11Trends(b *testing.B)            { runExperiment(b, "figure11") }
func BenchmarkFigure12FootprintBoxplot(b *testing.B)  { runExperiment(b, "figure12") }
func BenchmarkFigure13ExampleScanners(b *testing.B)   { runExperiment(b, "figure13") }
func BenchmarkFigure14ScanningBlocks(b *testing.B)    { runExperiment(b, "figure14") }
func BenchmarkFigure15Churn(b *testing.B)             { runExperiment(b, "figure15") }
func BenchmarkTable7TopOriginatorsJP(b *testing.B)    { runExperiment(b, "table7") }
func BenchmarkTable8TopOriginatorsM(b *testing.B)     { runExperiment(b, "table8") }
func BenchmarkFigure16Diurnal(b *testing.B)           { runExperiment(b, "figure16") }
func BenchmarkScannerTeams(b *testing.B)              { runExperiment(b, "teams") }

// Ablation benches for the design choices DESIGN.md calls out.

func BenchmarkAblationDedupWindow(b *testing.B)      { runExperiment(b, "ablation-dedup") }
func BenchmarkAblationQuerierThreshold(b *testing.B) { runExperiment(b, "ablation-threshold") }
func BenchmarkAblationFeatureSets(b *testing.B)      { runExperiment(b, "ablation-features") }
func BenchmarkAblationForestSize(b *testing.B)       { runExperiment(b, "ablation-forest") }
func BenchmarkAblationClassMerging(b *testing.B)     { runExperiment(b, "ablation-classes") }

// Extension benches: paper-anticipated follow-ons built on the same stack.

func BenchmarkExtensionQNameMinimization(b *testing.B) { runExperiment(b, "extension-qmin") }
func BenchmarkExtensionEvidenceFusion(b *testing.B)    { runExperiment(b, "extension-fusion") }

// BenchmarkConfusionMatrix reproduces the §IV-C per-class error analysis.
func BenchmarkConfusionMatrix(b *testing.B) { runExperiment(b, "confusion") }
