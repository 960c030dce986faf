package ml

import (
	"fmt"
	"math"
	"sort"
	"testing"

	"dnsbackscatter/internal/rng"
)

// refGini is Gini impurity over every class, present or not.
func refGini(counts []int, n int) float64 {
	g := 1.0
	for _, c := range counts {
		p := float64(c) / float64(n)
		g -= p * p
	}
	return g
}

// refSplit is the split search as Breiman's CART states it — for every
// candidate feature gather the node's rows, sort them by value, scan the
// boundaries between distinct values — written for reading, not speed.
// It is the oracle the production builder is compared against.
func refSplit(d *Dataset, idx, feats []int) (feat int, thr, gain float64) {
	feat = -1
	n := len(idx)
	counts := make([]int, d.NumClasses)
	for _, i := range idx {
		counts[d.Y[i]]++
	}
	parent := refGini(counts, n)
	for _, f := range feats {
		rows := append([]int(nil), idx...)
		sort.SliceStable(rows, func(a, b int) bool { return d.X[rows[a]][f] < d.X[rows[b]][f] })
		left := make([]int, d.NumClasses)
		right := append([]int(nil), counts...)
		for i := 0; i < n-1; i++ {
			left[d.Y[rows[i]]]++
			right[d.Y[rows[i]]]--
			a, b := d.X[rows[i]][f], d.X[rows[i+1]][f]
			if a == b {
				continue
			}
			nl, nr := i+1, n-i-1
			g := parent - (float64(nl)*refGini(left, nl)+float64(nr)*refGini(right, nr))/float64(n)
			if g > gain {
				feat, thr, gain = f, (a+b)/2, g
			}
		}
	}
	return feat, thr, gain
}

// refGrow grows the subtree over idx (rows may repeat) around refSplit,
// drawing from st exactly when the production builder must.
func refGrow(d *Dataset, idx []int, cfg CARTConfig, st *rng.Stream, depth, total int, imp []float64) *node {
	counts := make([]int, d.NumClasses)
	for _, i := range idx {
		counts[d.Y[i]]++
	}
	leaf := &node{feature: -1, label: majorityLabel(counts)}
	if len(idx) < 2 || (cfg.MaxDepth > 0 && depth >= cfg.MaxDepth) || refGini(counts, len(idx)) == 0 {
		return leaf
	}
	feats := seqInts(d.NumFeatures())
	if cfg.MaxFeatures > 0 && cfg.MaxFeatures < len(feats) {
		st.Shuffle(len(feats), func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:cfg.MaxFeatures]
	}
	feat, thr, gain := refSplit(d, idx, feats)
	if feat < 0 {
		return leaf
	}
	var l, r []int
	for _, i := range idx {
		if d.X[i][feat] <= thr {
			l = append(l, i)
		} else {
			r = append(r, i)
		}
	}
	if len(l) < max(cfg.MinLeaf, 1) || len(r) < max(cfg.MinLeaf, 1) {
		return leaf
	}
	imp[feat] += gain * float64(len(idx)) / float64(total)
	return &node{feature: feat, threshold: thr, label: leaf.label,
		left:  refGrow(d, l, cfg, st, depth+1, total, imp),
		right: refGrow(d, r, cfg, st, depth+1, total, imp)}
}

// sameTree reports the first difference between two subtrees, "" if none.
func sameTree(got, want *node, path string) string {
	if got.feature != want.feature || got.label != want.label ||
		math.Float64bits(got.threshold) != math.Float64bits(want.threshold) {
		return path + ": got " + nodeString(got) + ", want " + nodeString(want)
	}
	if got.feature < 0 {
		return ""
	}
	if diff := sameTree(got.left, want.left, path+"L"); diff != "" {
		return diff
	}
	return sameTree(got.right, want.right, path+"R")
}

func nodeString(n *node) string {
	return fmt.Sprintf("(feature %d <= %v, label %d)", n.feature, n.threshold, n.label)
}

// tiedDataset draws a dataset built to hit the builder's edge cases:
// per column one of constant / two-to-five distinct values / signed zeros
// mixed with small integers / continuous, and labels independent of all.
func tiedDataset(st *rng.Stream) *Dataset {
	n, nf, k := 4+st.Intn(90), 1+st.Intn(9), 2+st.Intn(6)
	kinds := make([]int, nf)
	for f := range kinds {
		kinds[f] = st.Intn(4)
	}
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		x[i] = make([]float64, nf)
		for f, kind := range kinds {
			switch kind {
			case 0:
				x[i][f] = 7
			case 1:
				x[i][f] = float64(st.Intn(2 + f%4))
			case 2:
				x[i][f] = []float64{math.Copysign(0, -1), 0, 1, -1, 0.5}[st.Intn(5)]
			default:
				x[i][f] = st.NormFloat64()
			}
		}
		y[i] = st.Intn(k)
	}
	d, err := NewDataset(x, y, k)
	if err != nil {
		panic(err)
	}
	return d
}

// TestTreeMatchesReference compares the production builder with refGrow,
// node by node and importance bit by importance bit, over heavy ties,
// constant columns, signed zeros and bootstrap duplicates, for every
// combination of MinLeaf {1, 3} x MaxDepth {0, 12} x MaxFeatures {0, 5,
// more than there are} x {every row once, bootstrap}. Both sides must
// also leave the stream in the same state — the same number of draws,
// none at all when there is nothing to subsample.
func TestTreeMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		d := tiedDataset(rng.New(seed))
		for _, minLeaf := range []int{1, 3} {
			for _, maxDepth := range []int{0, 12} {
				for _, maxFeat := range []int{0, 5, d.NumFeatures() + 2} {
					for _, bootstrap := range []bool{false, true} {
						cfg := CARTConfig{MinLeaf: minLeaf, MaxDepth: maxDepth, MaxFeatures: maxFeat}
						what := fmt.Sprintf("seed %d %+v bootstrap=%v", seed, cfg, bootstrap)
						st, refSt := rng.New(seed*31), rng.New(seed*31)
						n := d.Len()

						tree := CART{Config: cfg}.trainTree(d, st, bootstrap)

						refIdx := seqInts(n)
						if bootstrap {
							for i := range refIdx {
								refIdx[i] = refSt.Intn(n)
							}
						}
						imp := make([]float64, d.NumFeatures())
						root := refGrow(d, refIdx, cfg, refSt, 0, n, imp)

						if diff := sameTree(tree.root, root, "root"); diff != "" {
							t.Fatalf("%s: %s", what, diff)
						}
						for f := range imp {
							if math.Float64bits(tree.importance[f]) != math.Float64bits(imp[f]) {
								t.Fatalf("%s: importance[%d] = %v, want exactly %v", what, f, tree.importance[f], imp[f])
							}
						}
						next := st.Uint64()
						if next != refSt.Uint64() {
							t.Fatalf("%s: builder and reference drew differently from the stream", what)
						}
						if !bootstrap && (maxFeat == 0 || maxFeat >= d.NumFeatures()) && next != rng.New(seed*31).Uint64() {
							t.Fatalf("%s: drew from the stream with nothing to subsample", what)
						}
					}
				}
			}
		}
	}
}
