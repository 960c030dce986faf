// Package report regenerates every table and figure of the paper's
// evaluation from simulated datasets. Each experiment function returns a
// Result: tables of typed cells, preformatted lines for sparklines and
// notes, and a few named measurements. Result.String renders the
// paper-style text cmd/bsrepro prints, and Result.Measures reads every
// reproduced number back as a key and a value. The repository's
// benchmark harness drives the experiments as named benchmarks.
//
// A Store caches built datasets so one bsrepro or benchmark run builds
// each dataset once. Store.Scale shrinks populations for quick runs.
package report

import (
	"fmt"
	"sort"
	"strconv"
	"strings"
	"sync"

	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/ml"
)

// Store lazily builds and caches datasets.
type Store struct {
	// Scale multiplies dataset populations (1 = the specs' defaults).
	Scale float64
	// Heavy enables the most expensive trial points (the 10% and 100%
	// controlled scans of Figure 4).
	Heavy bool
	// Obs, when non-nil, attaches this registry to every dataset the
	// store builds (BuildObserved), so one bsrepro run accumulates
	// world, cache, and pipeline-stage metrics across experiments. Set
	// it before the first Get.
	Obs *backscatter.Registry
	// Workers is threaded into every built spec (DatasetSpec.Workers):
	// <= 0 uses GOMAXPROCS(0), 1 runs sequentially. Results are
	// byte-identical either way. Set it before the first Get.
	Workers int
	// Faults is a "profile@seed" fault-injection spec threaded into every
	// built spec (DatasetSpec.Faults); "" disables injection. Set it
	// before the first Get.
	Faults string
	// Trace is the tracing sample divisor threaded into every built spec
	// (DatasetSpec.Trace): 0 disables tracing, 1 traces every lookup,
	// N keeps the deterministic 1/N. Set it before the first Get.
	Trace int
	// Acct, when non-nil, attaches this resource accountant to every
	// dataset the store builds (Instruments.Acct), so one bsrepro run
	// accumulates per-stage resource accounting across experiments on
	// the ops channel. Set it before the first Get.
	Acct *backscatter.Accountant

	mu sync.Mutex
	ds map[string]*backscatter.Dataset // guarded by mu
}

// NewStore returns a store at the given scale.
func NewStore(scale float64) *Store {
	if scale <= 0 {
		scale = 1
	}
	return &Store{Scale: scale, ds: make(map[string]*backscatter.Dataset)}
}

// Get builds (once) and returns the dataset for a spec.
func (s *Store) Get(spec backscatter.DatasetSpec) *backscatter.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	if d, ok := s.ds[spec.Name]; ok {
		return d
	}
	d := backscatter.BuildWith(
		spec.Scaled(s.Scale).WithParallelism(s.Workers).WithFaults(s.Faults).WithTracing(s.Trace),
		backscatter.Instruments{Obs: s.Obs, Acct: s.Acct})
	s.ds[spec.Name] = d
	return d
}

// Datasets returns every dataset the store has built so far, sorted by
// name, so trace and time-series dumps iterate deterministically.
func (s *Store) Datasets() []*backscatter.Dataset {
	s.mu.Lock()
	defer s.mu.Unlock()
	names := make([]string, 0, len(s.ds))
	for n := range s.ds {
		names = append(names, n)
	}
	sort.Strings(names)
	out := make([]*backscatter.Dataset, 0, len(names))
	for _, n := range names {
		out = append(out, s.ds[n])
	}
	return out
}

// Experiment pairs a name with its generator, for bsrepro's registry.
type Experiment struct {
	Name string
	Desc string
	Run  func(*Store) Result
}

// All returns every experiment in paper order.
func All() []Experiment {
	return []Experiment{
		{"table1", "Dataset catalog (Table I)", Table1},
		{"figure3", "Static features, case studies (Figure 3)", Figure3},
		{"table2", "Dynamic features, case studies (Table II)", Table2},
		{"table3", "Classification validation (Table III)", Table3},
		{"table4", "Top discriminative features (Table IV)", Table4},
		{"figure4", "Controlled-scan attenuation (Figure 4)", Figure4},
		{"figure5", "Benign label stability (Figure 5)", labelActivity(false)},
		{"figure6", "Malicious label churn (Figure 6)", labelActivity(true)},
		{"figure7", "Training strategies over time (Figure 7)", Figure7},
		{"figure8", "Classification consistency CDF (Figure 8)", Figure8},
		{"figure9", "Footprint-size distribution (Figure 9)", Figure9},
		{"figure10", "Top-N class fractions (Figure 10)", Figure10},
		{"table5", "Originators per class (Table V)", Table5},
		{"table6", "Labeled ground truth (Table VI)", Table6},
		{"figure11", "Originators over time, Heartbleed (Figure 11)", Figure11},
		{"figure12", "Scanner footprint over time (Figure 12)", Figure12},
		{"figure13", "Example scanners (Figure 13)", Figure13},
		{"figure14", "Scanning /24 blocks (Figure 14)", Figure14},
		{"figure15", "Week-by-week scanner churn (Figure 15)", Figure15},
		{"table7", "Top originators at JP (Table VII)", Table7},
		{"table8", "Top originators at M-Root (Table VIII)", Table8},
		{"confusion", "Per-class accuracy and confusion (§IV-C)", Confusion},
		{"figure16", "Diurnal activity, case studies (Figure 16)", Figure16},
		{"teams", "Scanner teams by /24 (§VI-B)", Teams},
		{"ablation-dedup", "Ablation: dedup window", AblationDedup},
		{"ablation-threshold", "Ablation: querier threshold", AblationThreshold},
		{"ablation-features", "Ablation: feature sets", AblationFeatures},
		{"ablation-forest", "Ablation: forest size", AblationForest},
		{"ablation-classes", "Ablation: class merging", AblationClasses},
		{"extension-qmin", "Extension: QNAME minimization vs the sensor (§VII)", ExtensionQMin},
		{"extension-fusion", "Extension: darknet/blacklist evidence fusion (§III-F)", ExtensionFusion},
	}
}

// Find returns the experiment with the given name.
func Find(name string) (Experiment, bool) {
	for _, e := range All() {
		if e.Name == name {
			return e, true
		}
	}
	return Experiment{}, false
}

// Result is what one experiment reproduces: a titled sequence of
// blocks, and the measurements no table cell carries.
type Result struct {
	Title  string
	Blocks []Block
	Named  []Measure // standalone, such as an exponent printed in a sentence
}

// Block is a table or, when Table is nil, one line of preformatted text
// (a sparkline, a note).
type Block struct {
	Table *Table
	Text  string
}

// Table is a block of aligned columns. Its leading Keys columns name a
// row; Measures keys every other numeric cell by the table's Name, the
// row's name (its 1-based position when Keys is 0) and the cell's
// column name.
type Table struct {
	Name   string   // not printed
	Header []string // printed as the first row when non-empty
	Cols   []string // column names for Measures where they differ from Header
	Keys   int
	Rows   [][]Cell
}

// Cell is a table value and the fmt verb it prints with; the verb may
// carry literal text ("%.0f%%", "top-%d"). V is a string, an int, a
// uint64, a float64, or an ml.MeanStd printed by a two-verb format.
type Cell struct {
	V    any
	Verb string
}

// Measure is one reproduced number.
type Measure struct {
	Key   string
	Value float64
}

func str(s string) Cell         { return Cell{s, "%s"} }
func meanStd(m ml.MeanStd) Cell { return Cell{m, "%.2f (%.2f)"} }

// String prints the cell with its verb.
func (c Cell) String() string {
	if m, ok := c.V.(ml.MeanStd); ok {
		return fmt.Sprintf(c.Verb, m.Mean, m.Std)
	}
	return fmt.Sprintf(c.Verb, c.V)
}

func (t *Table) row(cells ...Cell) { t.Rows = append(t.Rows, cells) }

func (r *Result) table(t *Table) { r.Blocks = append(r.Blocks, Block{Table: t}) }

func (r *Result) text(lines ...string) {
	for _, l := range lines {
		r.Blocks = append(r.Blocks, Block{Text: l})
	}
}

// tableResult is a result holding one table followed by lines of text.
func tableResult(title string, t *Table, lines ...string) Result {
	r := Result{Title: title}
	r.table(t)
	r.text(lines...)
	return r
}

// untrainable is the result of an experiment whose classifier could not
// be trained.
func untrainable(title, msg string) Result { return Result{Title: title, Blocks: []Block{{Text: msg}}} }

func (r *Result) measure(key string, v float64) { r.Named = append(r.Named, Measure{key, v}) }

// String renders the result as paper-style text: the title underlined,
// then each block. Table columns are as wide as their widest cell, in
// bytes, with two spaces between them.
func (r Result) String() string {
	var b strings.Builder
	b.WriteString(r.Title + "\n" + strings.Repeat("=", len(r.Title)) + "\n")
	for _, blk := range r.Blocks {
		if blk.Table == nil {
			b.WriteString(blk.Text + "\n")
			continue
		}
		rows := [][]string{blk.Table.Header} // empty when headerless: not printed
		for _, row := range blk.Table.Rows {
			cells := make([]string, len(row))
			for i, c := range row {
				cells[i] = c.String()
			}
			rows = append(rows, cells)
		}
		var widths []int
		for _, row := range rows {
			for i, c := range row {
				if i == len(widths) {
					widths = append(widths, 0)
				}
				widths[i] = max(widths[i], len(c))
			}
		}
		for _, row := range rows {
			for i, c := range row {
				if i > 0 {
					b.WriteString("  ")
				}
				b.WriteString(c)
				if i < len(row)-1 {
					b.WriteString(strings.Repeat(" ", widths[i]-len(c)))
				}
			}
			if len(row) > 0 {
				b.WriteByte('\n')
			}
		}
	}
	return b.String()
}

// Measures returns every number the result reproduces, keyed
// "name/row/column" for table cells (a MeanStd adds "column/std"), then
// the named measurements. Empty key parts are dropped.
func (r Result) Measures() []Measure {
	var out []Measure
	for _, blk := range r.Blocks {
		t := blk.Table
		if t == nil {
			continue
		}
		cols := t.Cols
		if cols == nil {
			cols = t.Header
		}
		for i, row := range t.Rows {
			name := strconv.Itoa(i + 1)
			if t.Keys > 0 {
				parts := make([]string, t.Keys)
				for j, c := range row[:t.Keys] {
					parts[j] = strings.TrimSpace(c.String())
				}
				name = strings.Join(parts, "/")
			}
			for j := t.Keys; j < len(row); j++ {
				col := ""
				if j < len(cols) {
					col = cols[j]
				}
				k := strings.Trim(t.Name+"/"+name+"/"+col, "/")
				switch v := row[j].V.(type) {
				case int:
					out = append(out, Measure{k, float64(v)})
				case uint64:
					out = append(out, Measure{k, float64(v)})
				case float64:
					out = append(out, Measure{k, v})
				case ml.MeanStd:
					out = append(out, Measure{k, v.Mean}, Measure{k + "/std", v.Std})
				}
			}
		}
	}
	return append(out, r.Named...)
}

// classHeader returns a header with one column per class, in the
// paper's column order, between first and the optional last.
func classHeader(first string, last ...string) []string {
	head := []string{first}
	for c := range activity.NumClasses {
		head = append(head, c.String())
	}
	return append(head, last...)
}
