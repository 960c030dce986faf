package ml

import (
	"encoding/binary"
	"io"
	"math"
)

// Shims for the external test package (pinned_test.go imports the root
// package, which imports ml, so it cannot live in package ml).

// RandomDataset is property_test.go's generator.
var RandomDataset = randomDataset

func writeBits(w io.Writer, vs ...uint64) {
	var b [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(b[:], v)
		w.Write(b[:])
	}
}

// WriteFloats writes the exact bit pattern of every value.
func WriteFloats(w io.Writer, vs ...float64) {
	for _, v := range vs {
		writeBits(w, math.Float64bits(v))
	}
}

// MatchReference is reference_test.go's oracle comparison.
var MatchReference = matchReference

// WriteTree writes every node of t in preorder as (feature, threshold
// bits, label), then every unnormalized importance bit.
func WriteTree(w io.Writer, t *Tree) {
	for _, n := range t.nodes {
		writeBits(w, uint64(int64(n.feature)), math.Float64bits(n.threshold), uint64(n.label))
	}
	WriteFloats(w, t.importance...)
}

// WriteForest writes every tree of m in order, then the merged importances.
func WriteForest(w io.Writer, m *ForestModel) {
	for _, t := range m.trees {
		WriteTree(w, t)
	}
	WriteFloats(w, m.importance...)
}
