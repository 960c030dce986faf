package ml

import (
	"slices"
	"sync"

	"dnsbackscatter/internal/rng"
)

// CARTConfig controls decision-tree growth.
type CARTConfig struct {
	MaxDepth    int // 0 = unlimited
	MinLeaf     int // minimum samples per leaf (default 1)
	MaxFeatures int // features examined per split; 0 = all (forests subsample)
}

// minSplit is the fewest samples a node needs to attempt a split.
const minSplit = 2

// CART trains a single classification tree with Gini-impurity splits
// (Breiman et al. 1984), the first of the paper's three algorithms.
type CART struct {
	Config CARTConfig
}

// Name implements Trainer.
func (CART) Name() string { return "CART" }

// node is one tree node, 16 bytes and no pointers. A tree is its nodes in
// pre-order: node i's left child is node i+1 and its right child is node
// right. Leaves have feature == -1.
type node struct {
	threshold float64
	right     int32
	feature   int16
	label     int16
}

// Tree is a trained decision tree.
type Tree struct {
	nodes []node // pre-order; nodes[0] is the root
	// importance accumulates weighted Gini decrease per feature; forests
	// aggregate it into Table IV's discriminative-feature ranking.
	importance []float64
}

// Predict implements Classifier.
func (t *Tree) Predict(x []float64) int {
	nodes, i := t.nodes, 0
	for nodes[i].feature >= 0 {
		if x[nodes[i].feature] <= nodes[i].threshold {
			i++
		} else {
			i = int(nodes[i].right)
		}
	}
	return int(nodes[i].label)
}

// Importance returns the tree's per-feature impurity decrease, normalized
// to sum to 1 (zero vector if no splits).
func (t *Tree) Importance() []float64 {
	out := make([]float64, len(t.importance))
	var sum float64
	for _, v := range t.importance {
		sum += v
	}
	if sum == 0 {
		return out
	}
	for i, v := range t.importance {
		out[i] = v / sum
	}
	return out
}

// Train implements Trainer.
func (c CART) Train(d *Dataset, st *rng.Stream) Classifier {
	return c.TrainTree(d, st)
}

// TrainTree grows the tree and returns the concrete type (forests need the
// importances).
func (c CART) TrainTree(d *Dataset, st *rng.Stream) *Tree {
	return c.trainTree(d, st, false)
}

// trainTree grows a tree over every row of d once or, with bootstrap set,
// over d.Len() rows drawn from st with replacement — a forest's bagging
// draw, taken as per-row multiplicities, so no index slice and no Dataset
// copy is materialised.
func (c CART) trainTree(d *Dataset, st *rng.Stream, bootstrap bool) *Tree {
	cfg := c.Config
	if cfg.MinLeaf < 1 {
		cfg.MinLeaf = 1
	}
	r := d.ranked()
	t := &Tree{importance: make([]float64, r.nf)}
	b := builderPool.Get().(*treeBuilder)
	b.r, b.y, b.cfg, b.st, b.tree, b.total = r, d.Y, cfg, st, t, r.n
	b.counts = sized(b.counts, d.NumClasses)
	b.leftCounts = sized(b.leftCounts, d.NumClasses)
	b.present = sized(b.present, d.NumClasses)
	b.feats = sized(b.feats, r.nf)
	b.weight = sized(b.weight, r.n)
	if bootstrap {
		clear(b.weight)
		for range r.n {
			b.weight[st.Intn(r.n)]++
		}
	} else {
		for i := range b.weight {
			b.weight[i] = 1
		}
	}
	// Filter the dataset's ranking down to the m drawn rows, list by list.
	b.seg = sized(b.seg, r.nf*r.n)
	var m int
	for f := 0; f < r.nf; f++ {
		seg := b.seg[f*r.n:]
		m = 0
		for _, row := range r.order[f*r.n : (f+1)*r.n] {
			seg[m] = row
			if b.weight[row] > 0 {
				m++
			}
		}
	}
	b.spill = sized(b.spill, m)
	b.nodes = b.nodes[:0]
	b.grow(0, m, 0, 0)
	t.nodes = slices.Clone(b.nodes)
	b.r, b.y, b.st, b.tree = nil, nil, nil, nil
	builderPool.Put(b)
	return t
}

// builderPool recycles treeBuilder scratch across trees. Pooling is
// ops-only: scratch contents are fully overwritten before use, so results
// are byte-identical with or without reuse.
var builderPool = sync.Pool{New: func() any { return new(treeBuilder) }}

// sized returns s resized to n, reallocating only when capacity is short.
func sized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// treeBuilder carries per-tree state plus the scratch buffers the grow
// loop reuses for every node. Nodes are appended to pooled scratch and
// copied out once, so a tree costs one allocation for its nodes.
//
// The tree's sample is weight (how often the bootstrap drew each row) and
// seg: for every feature, the m drawn rows in ascending order of that
// feature, filtered from the dataset's ranking. A node is a range [lo, hi)
// of all those lists at once — the same rows in each, ordered by each
// feature — so a split scans its candidates' ranges in place and then
// partitions every list's range stably into the children's. Nothing is
// sorted after the dataset's one ranking. A list whose values are all
// equal over a node's range is not partitioned: its range holds that one
// value in every descendant, where the split scan skips it.
type treeBuilder struct {
	r     *ranked
	y     []int
	cfg   CARTConfig
	st    *rng.Stream
	tree  *Tree
	total int // rows in the sample, counting repeats

	weight     []int32 // per dataset row: multiplicity in the sample
	seg        []int32 // seg[f*r.n:][:m]: the m drawn rows ascending by feature f
	spill      []int32 // stable-partition spill buffer
	counts     []int   // per-node class histogram (reused down the recursion)
	leftCounts []int   // split-scan left-side histogram
	present    []int   // classes with a nonzero count in the node, ascending
	feats      []int   // feature scan order (reshuffled per split)
	nodes      []node  // the tree so far, in pre-order
}

// list returns the range [lo, hi) of feature f's list.
func (b *treeBuilder) list(f, lo, hi int) []int32 { return b.seg[f*b.r.n+lo : f*b.r.n+hi] }

func majorityLabel(counts []int) int {
	best, bestN := 0, -1
	for label, n := range counts {
		if n > bestN {
			best, bestN = label, n
		}
	}
	return best
}

// grow appends the subtree over the node [lo, hi) and partitions the
// ranges of the lists that are not constant there between its children.
// rows names a list holding exactly the node's rows in that range: the
// parent's split feature's, which splits as a prefix and a suffix.
func (b *treeBuilder) grow(lo, hi, rows, depth int) {
	counts := b.counts
	clear(counts)
	n := 0
	for _, row := range b.list(rows, lo, hi) {
		w := int(b.weight[row])
		counts[b.y[row]] += w
		n += w
	}
	label := majorityLabel(counts)
	at := len(b.nodes)
	b.nodes = append(b.nodes, node{feature: -1, label: int16(label)})
	if n < minSplit || (b.cfg.MaxDepth > 0 && depth >= b.cfg.MaxDepth) {
		return
	}
	// Gini impurity, summed over the classes present: an absent class's
	// term would subtract exactly 0.0.
	present, parentGini, sq := b.present[:0], 1.0, 0
	for c, k := range counts {
		if k > 0 {
			present = append(present, c)
			sq += k * k
			p := float64(k) / float64(n)
			parentGini -= p * p
		}
	}
	if parentGini == 0 {
		return
	}

	feat, thr, gain := b.bestSplit(lo, hi, n, sq, present, parentGini)
	if feat < 0 {
		return
	}

	// The rows going left are a prefix of feat's own range. It is measured
	// with the comparison Predict will make, not taken from the scan: a
	// midpoint can round up onto the next value.
	seg, col := b.list(feat, lo, hi), b.r.col(feat)
	nl, cut := 0, 0
	for cut < len(seg) && col[seg[cut]] <= thr {
		nl += int(b.weight[seg[cut]])
		cut++
	}
	if nl < b.cfg.MinLeaf || n-nl < b.cfg.MinLeaf {
		return
	}
	b.tree.importance[feat] += gain * float64(n) / float64(b.total)
	b.nodes[at].feature, b.nodes[at].threshold = int16(feat), thr
	for f := 0; f < b.r.nf; f++ {
		if seg, own := b.list(f, lo, hi), b.r.col(f); f != feat && own[seg[0]] != own[seg[len(seg)-1]] {
			b.partition(seg, col, thr)
		}
	}
	b.grow(lo, lo+cut, feat, depth+1)
	b.nodes[at].right = int32(len(b.nodes))
	b.grow(lo+cut, hi, feat, depth+1)
}

// partition moves the rows of seg that the split (col <= thr) sends left
// to the front and the rest behind them, both keeping their order, so each
// child's range is still ascending by the list's own feature. Every row is
// written to both sides and only the cursors depend on the comparison: the
// loop has no branch to mispredict.
func (b *treeBuilder) partition(seg []int32, col []float64, thr float64) {
	spill := b.spill[:len(seg)]
	nl, nr := 0, 0
	for _, row := range seg {
		l := 0
		if col[row] <= thr {
			l = 1
		}
		seg[nl] = row
		spill[nr] = row
		nl += l
		nr += 1 - l
	}
	copy(seg[nl:], spill[:nr])
}

// screenMargin is how far below the best gain so far a boundary's exact
// gain may lie and still have its float gain evaluated. It exceeds the
// rounding error of the screen and of the float gain by five orders of
// magnitude (DESIGN.md §5, "Tree training").
const screenMargin = 1e-9

// bestSplit scans (a possibly random subset of) features for the split of
// the node [lo, hi) maximizing Gini gain. Thresholds are midpoints between
// consecutive distinct values of a feature's range, which is already in
// ascending order. Tie order within equal feature values never reaches
// the result: gains are evaluated only at distinct-value boundaries, from
// integer class counts.
//
// The weighted child impurity at a boundary is exactly n − sl/nL − sr/nR:
// sl and sr sum the squared class counts on each side (sq, the node's, to
// start), kept as integers row by row. A boundary that this shows cannot
// come within screenMargin of the best gain is skipped without a division;
// at the others the float gain and the strict g > gain decide.
func (b *treeBuilder) bestSplit(lo, hi, n, sq int, present []int, parentGini float64) (feat int, thr, gain float64) {
	nf := b.r.nf
	feats := b.feats
	for i := range feats {
		feats[i] = i
	}
	if b.cfg.MaxFeatures > 0 && b.cfg.MaxFeatures < nf {
		b.st.Shuffle(nf, func(i, j int) { feats[i], feats[j] = feats[j], feats[i] })
		feats = feats[:b.cfg.MaxFeatures]
	}

	feat = -1
	parentCounts, leftCounts := b.counts, b.leftCounts
	fn := float64(n)
	qmin := fn - fn*(parentGini-gain+screenMargin)
	last := hi - lo - 1
	for _, f := range feats {
		seg, col := b.list(f, lo, hi), b.r.col(f)
		if col[seg[0]] == col[seg[last]] {
			continue
		}
		for _, c := range present {
			leftCounts[c] = 0
		}
		nLeft, sl, sr := 0, 0, sq
		next := col[seg[0]]
		for i := 0; i < last; i++ {
			row, v := seg[i], next
			next = col[seg[i+1]]
			w, c := int(b.weight[row]), b.y[row]
			l := leftCounts[c]
			sl += (2*l + w) * w
			sr -= (2*(parentCounts[c]-l) - w) * w
			leftCounts[c] = l + w
			nLeft += w
			if v == next {
				continue
			}
			nRight := n - nLeft
			fl, fr := float64(nLeft), float64(nRight)
			if float64(sl)*fr+float64(sr)*fl <= qmin*fl*fr {
				continue
			}
			gl, gr := 1.0, 1.0
			for _, c := range present {
				pl := float64(leftCounts[c]) / float64(nLeft)
				gl -= pl * pl
				pr := float64(parentCounts[c]-leftCounts[c]) / float64(nRight)
				gr -= pr * pr
			}
			g := parentGini - (float64(nLeft)*gl+float64(nRight)*gr)/float64(n)
			if g > gain {
				gain, feat, thr = g, f, (v+next)/2
				qmin = fn - fn*(parentGini-gain+screenMargin)
			}
		}
	}
	return feat, thr, gain
}
