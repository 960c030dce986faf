// Streaming: run the sensor the way an operator would at the paper's real
// volumes (Table I: billions of queries) — parse a wire-format capture
// stream through the bounded-memory streaming engine (HyperLogLog
// footprints + bottom-k querier samples), then classify the approximate
// vectors with a model trained on exact ones.
package main

import (
	"bytes"
	"fmt"
	"log"
	"math"

	backscatter "dnsbackscatter"
)

func main() {
	spec := backscatter.JPDitl().Scaled(0.5)
	fmt.Printf("simulating %s...\n", spec.Name)
	ds := backscatter.Build(spec)

	// Serialize the authority's view as a packet capture — what a sensor
	// tapping the wire actually has (§III-A).
	var capture bytes.Buffer
	if err := backscatter.WriteCapture(&capture, ds.Records); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("capture stream: %d records, %.1f MB\n",
		len(ds.Records), float64(capture.Len())/(1<<20))

	// Stream it through the bounded engine.
	sspec := backscatter.DefaultStreamSpec()
	stream := ds.NewStream(sspec, nil)
	recs, err := backscatter.ReadCapture(&capture)
	if err != nil {
		log.Fatal(err)
	}
	stream.Ingest(recs)
	stream.Tick(spec.Start.Add(spec.Duration))
	approx := stream.Vectors()
	exact := ds.Whole().Vectors
	fmt.Printf("originators: %d exact vs %d streamed (threshold ≥%d queriers)\n",
		len(exact), len(approx), ds.Extractor.MinQueriers)

	// Footprint accuracy of the HLL estimates.
	exactBy := make(map[backscatter.Addr]int)
	for _, v := range exact {
		exactBy[v.Originator] = v.Queriers
	}
	var worst, sum float64
	n := 0
	for _, v := range approx {
		e, ok := exactBy[v.Originator]
		if !ok {
			continue
		}
		rel := math.Abs(float64(v.Queriers-e)) / float64(e)
		sum += rel
		n++
		if rel > worst {
			worst = rel
		}
	}
	if n > 0 {
		fmt.Printf("footprint estimates: mean error %.1f%%, worst %.1f%% (HLL p=11 ≈ 2.3%% σ)\n",
			100*sum/float64(n), 100*worst)
	}

	// Classify the streamed vectors with a model trained on the curated
	// labels — the approximate features must stay classifier-compatible.
	model, err := ds.TrainClassifier(1)
	if err != nil {
		log.Fatal(err)
	}
	agree, scored := 0, 0
	for _, v := range approx {
		if truth, ok := ds.Truth(v.Originator); ok {
			scored++
			if model.Classify(v) == truth {
				agree++
			}
		}
	}
	if scored > 0 {
		fmt.Printf("classification of streamed vectors: %d/%d (%.0f%%) agree with ground truth\n",
			agree, scored, 100*float64(agree)/float64(scored))
	}
	fmt.Println("\nthe streaming sensor holds fixed state per originator regardless of volume:")
	fmt.Printf("  2 KB HLL + %d-querier sample + persistence counter\n", sspec.SampleK)
}
