// Command bsclassify trains a classifier from a labeled subset of a query
// log and classifies every analyzable originator — the operational shape
// of the paper's Figure 2 pipeline.
//
// Usage:
//
//	bsclassify -log out/log.tsv -queriers out/queriers.tsv \
//	           -truth out/truth.tsv -labels 40 -top 30
//
// The geo/AS database is the deterministic synthetic registry; -seed must
// match the generating world (bsgen prints it via the dataset spec).
package main

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"

	backscatter "dnsbackscatter"

	"dnsbackscatter/internal/activity"
	"dnsbackscatter/internal/classify"
	"dnsbackscatter/internal/features"
	"dnsbackscatter/internal/geo"
	"dnsbackscatter/internal/groundtruth"
	"dnsbackscatter/internal/ipaddr"
	"dnsbackscatter/internal/ml"
	"dnsbackscatter/internal/qname"
	"dnsbackscatter/internal/rng"
	"dnsbackscatter/internal/simtime"
)

func main() {
	var (
		logPath  = flag.String("log", "log.tsv", "authority query log (TSV)")
		wirePath = flag.String("wirelog", "", "framed wire-format capture; overrides -log")
		qPath    = flag.String("queriers", "queriers.tsv", "querier reverse-name table")
		tPath    = flag.String("truth", "truth.tsv", "originator truth for label curation")
		seed     = flag.Uint64("seed", 1404, "geo registry seed (must match the generator)")
		alg      = flag.String("algorithm", "rf", "cart, rf, or svm")
		labels   = flag.Int("labels", 40, "max labeled examples per class")
		top      = flag.Int("top", 30, "print the top-N originators")
		minQ     = flag.Int("minqueriers", 20, "analyzability threshold")
		showAll  = flag.Bool("all", false, "print every classified originator")
		workers  = flag.Int("workers", runtime.GOMAXPROCS(0), "pipeline worker goroutines (1 = sequential; output is identical either way)")
	)
	flag.Parse()

	var recs []backscatter.Record
	var err error
	if *wirePath != "" {
		recs, err = readCapture(*wirePath)
	} else {
		recs, err = readLog(*logPath)
	}
	if err != nil {
		fatal(err)
	}
	cats, err := readQueriers(*qPath)
	if err != nil {
		fatal(err)
	}
	truth, err := readTruth(*tPath)
	if err != nil {
		fatal(err)
	}
	if len(recs) == 0 {
		fatal(fmt.Errorf("empty log %s", *logPath))
	}

	g := geo.NewRegistry(*seed)
	x := features.NewExtractor(g, func(a ipaddr.Addr) qname.Category {
		if c, ok := cats[a]; ok {
			return c
		}
		return qname.NXDomain
	})
	x.MinQueriers = *minQ
	x.Workers = *workers

	start := recs[0].Time
	end := recs[0].Time
	for _, r := range recs {
		if r.Time.Before(start) {
			start = r.Time
		}
		if r.Time.After(end) {
			end = r.Time
		}
	}
	snap := classify.Snap(recs, x, start, end.Sub(start)+simtime.Second)
	fmt.Fprintf(os.Stderr, "bsclassify: %d records, %d analyzable originators\n",
		len(recs), len(snap.Vectors))

	oracle := groundtruth.NewOracle(truth, nil, *seed)
	cur := groundtruth.DefaultCuration()
	cur.MaxPerClass = *labels
	labeled := groundtruth.Curate(snap.Ranked(), oracle, cur, rng.New(*seed))
	fmt.Fprintf(os.Stderr, "bsclassify: curated %d labeled examples\n", labeled.Total())

	p := classify.NewPipeline()
	p.Workers = *workers
	switch strings.ToLower(*alg) {
	case "cart":
		p.Trainer = ml.CART{Config: ml.CARTConfig{MaxDepth: 12}}
	case "svm":
		p.Trainer = ml.SVM{}
	case "rf":
		p.Trainer = ml.Forest{Config: ml.ForestConfig{Trees: 60}}
	default:
		fatal(fmt.Errorf("unknown algorithm %q", *alg))
	}
	model, err := p.Train(snap, labeled, rng.New(*seed+1))
	if err != nil {
		fatal(err)
	}

	n := *top
	if *showAll || n > len(snap.Vectors) {
		n = len(snap.Vectors)
	}
	w := bufio.NewWriter(os.Stdout)
	defer w.Flush()
	fmt.Fprintln(w, "rank\toriginator\tqueriers\tclass\ttruth")
	agree, scored := 0, 0
	for i, v := range snap.Vectors[:n] {
		cls := model.Classify(v)
		truthStr := "-"
		if tc, ok := truth[v.Originator]; ok {
			truthStr = tc.String()
			scored++
			if tc == cls {
				agree++
			}
		}
		fmt.Fprintf(w, "%d\t%s\t%d\t%s\t%s\n", i+1, v.Originator, v.Queriers, cls, truthStr)
	}
	if scored > 0 {
		fmt.Fprintf(os.Stderr, "bsclassify: truth agreement %d/%d (%.0f%%)\n",
			agree, scored, 100*float64(agree)/float64(scored))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bsclassify:", err)
	os.Exit(1)
}

func readCapture(path string) ([]backscatter.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return backscatter.ReadCapture(f)
}

func readLog(path string) ([]backscatter.Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return backscatter.ReadLog(f)
}

// readQueriers reads the querier table, classifying each name once.
func readQueriers(path string) (map[ipaddr.Addr]qname.Category, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[ipaddr.Addr]qname.Category)
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
	for sc.Scan() {
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) != 2 {
			continue
		}
		a, err := ipaddr.Parse(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		switch fields[1] {
		case "!nxdomain":
			out[a] = qname.NXDomain
		case "!unreach":
			out[a] = qname.Unreach
		default:
			out[a] = qname.Classify(fields[1])
		}
	}
	return out, sc.Err()
}

func readTruth(path string) (map[ipaddr.Addr]activity.Class, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := make(map[ipaddr.Addr]activity.Class)
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		fields := strings.Split(sc.Text(), "\t")
		if len(fields) < 2 {
			continue
		}
		a, err := ipaddr.Parse(fields[0])
		if err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		cls, ok := activity.ParseClass(fields[1])
		if !ok {
			return nil, fmt.Errorf("%s:%d: unknown class %q", path, line, fields[1])
		}
		out[a] = cls
	}
	return out, sc.Err()
}
