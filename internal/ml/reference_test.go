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

// refNode is the reference's tree: a pointer graph, so that comparing it
// with a built tree also checks the flat layout's child indices.
type refNode struct {
	feature, label int
	threshold      float64
	left, right    *refNode
}

// refGrow grows the subtree over idx (rows may repeat) around refSplit,
// drawing from st exactly when the production builder must.
func refGrow(d *Dataset, idx []int, cfg CARTConfig, st *rng.Stream, depth, total int, imp []float64) *refNode {
	counts := make([]int, d.NumClasses)
	for _, i := range idx {
		counts[d.Y[i]]++
	}
	leaf := &refNode{feature: -1, label: majorityLabel(counts)}
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
	return &refNode{feature: feat, threshold: thr, label: leaf.label,
		left:  refGrow(d, l, cfg, st, depth+1, total, imp),
		right: refGrow(d, r, cfg, st, depth+1, total, imp)}
}

// sameTree compares the subtree stored from nodes[i] on with want. It
// returns the index just past that subtree and the first difference, ""
// if none.
func sameTree(nodes []node, i int, want *refNode, path string) (int, string) {
	if i >= len(nodes) {
		return i, path + ": missing from the built tree"
	}
	got := nodes[i]
	if int(got.feature) != want.feature || int(got.label) != want.label ||
		math.Float64bits(got.threshold) != math.Float64bits(want.threshold) {
		return i, fmt.Sprintf("%s: got (feature %d <= %v, label %d), want (feature %d <= %v, label %d)",
			path, got.feature, got.threshold, got.label, want.feature, want.threshold, want.label)
	}
	if want.feature < 0 {
		return i + 1, ""
	}
	end, diff := sameTree(nodes, i+1, want.left, path+"L")
	if diff == "" && end != int(got.right) {
		diff = fmt.Sprintf("%s: right child at node %d, but the left subtree ends at %d", path, got.right, end)
	}
	if diff != "" {
		return end, diff
	}
	return sameTree(nodes, end, want.right, path+"R")
}

// matchReference trains one tree with the production builder and one
// with refGrow, from two streams seeded alike, and returns their first
// difference — a node, an importance bit, or the draws taken from the
// stream, of which there must be none when there is nothing to subsample
// — or "" if there is none.
func matchReference(d *Dataset, cfg CARTConfig, seed uint64, bootstrap bool) string {
	st, refSt := rng.New(seed), rng.New(seed)
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

	end, diff := sameTree(tree.nodes, 0, root, "root")
	if diff == "" && end != len(tree.nodes) {
		diff = fmt.Sprintf("%d nodes follow the tree", len(tree.nodes)-end)
	}
	if diff != "" {
		return diff
	}
	for f := range imp {
		if math.Float64bits(tree.importance[f]) != math.Float64bits(imp[f]) {
			return fmt.Sprintf("importance[%d] = %v, want exactly %v", f, tree.importance[f], imp[f])
		}
	}
	next := st.Uint64()
	if next != refSt.Uint64() {
		return "builder and reference drew differently from the stream"
	}
	if !bootstrap && (cfg.MaxFeatures == 0 || cfg.MaxFeatures >= d.NumFeatures()) && next != rng.New(seed).Uint64() {
		return "drew from the stream with nothing to subsample"
	}
	return ""
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

// equalGainDataset draws a dataset on which many boundaries have exactly
// the same Gini gain but reach it through different float roundings: k
// balanced classes, 16 features, and every feature orders the rows so
// that its label sequence is one shared sequence with the classes
// renamed. At a boundary, every feature's class counts are then a
// permutation of every other's — one exact gain, summed over the classes
// in different orders. Odd features put two rows on each value.
func equalGainDataset(st *rng.Stream) *Dataset {
	k, perClass, nf := 2+st.Intn(11), 3+st.Intn(10), 16
	n := k * perClass
	seq := make([]int, n)
	byClass := make([][]int, k)
	x := make([][]float64, n)
	y := make([]int, n)
	for i := range x {
		seq[i], y[i], x[i] = i%k, i%k, make([]float64, nf)
		byClass[i%k] = append(byClass[i%k], i)
	}
	st.Shuffle(n, func(i, j int) { seq[i], seq[j] = seq[j], seq[i] })
	for f := 0; f < nf; f++ {
		rename, taken := st.Perm(k), make([]int, k)
		for _, rows := range byClass {
			st.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
		}
		for pos, c := range seq {
			c = rename[c]
			x[byClass[c][taken[c]]][f] = float64(pos / (1 + f%2))
			taken[c]++
		}
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
// more than there are} x {every row once, bootstrap}; then in a forest's
// shape (MaxFeatures = round(√F), every row once and bootstrap) on
// equalGainDataset, where the split screen must pass exact ties on to the
// float gain. Both sides must also leave the stream in the same state.
// TestTreeMatchesReferenceMDitl (pinned_test.go, which can build it) adds
// the M-Root DITL labelled set.
func TestTreeMatchesReference(t *testing.T) {
	for seed := uint64(1); seed <= 60; seed++ {
		d := tiedDataset(rng.New(seed))
		for _, minLeaf := range []int{1, 3} {
			for _, maxDepth := range []int{0, 12} {
				for _, maxFeat := range []int{0, 5, d.NumFeatures() + 2} {
					for _, bootstrap := range []bool{false, true} {
						cfg := CARTConfig{MinLeaf: minLeaf, MaxDepth: maxDepth, MaxFeatures: maxFeat}
						if diff := matchReference(d, cfg, seed*31, bootstrap); diff != "" {
							t.Fatalf("seed %d %+v bootstrap=%v: %s", seed, cfg, bootstrap, diff)
						}
					}
				}
			}
		}
	}
	for seed := uint64(1); seed <= 40; seed++ {
		d := equalGainDataset(rng.New(seed))
		cfg := CARTConfig{MaxFeatures: int(math.Round(math.Sqrt(float64(d.NumFeatures()))))}
		for _, bootstrap := range []bool{false, true} {
			if diff := matchReference(d, cfg, seed*31, bootstrap); diff != "" {
				t.Fatalf("equal gains, seed %d bootstrap=%v: %s", seed, bootstrap, diff)
			}
		}
	}
}
