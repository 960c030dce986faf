package ml

import (
	"math"

	"dnsbackscatter/internal/rng"
)

// SVMConfig controls kernel-SVM training.
type SVMConfig struct {
	MaxIters int // hard iteration cap (default 200 sweeps)
}

// SMO's fixed settings; the RBF width is 1/F for F features.
const (
	svmC       = 10   // soft-margin penalty
	svmTol     = 1e-3 // KKT tolerance
	svmMaxPass = 5    // passes without alpha changes before stopping
)

// SVM trains a one-vs-one multiclass support-vector machine with an RBF
// kernel, optimized by simplified SMO (Platt 1998 as reduced in the
// Stanford CS229 notes) — the paper's third algorithm.
type SVM struct {
	Config SVMConfig
}

// Name implements Trainer.
func (SVM) Name() string { return "SVM" }

// binarySVM is one trained pairwise machine.
type binarySVM struct {
	x     [][]float64 // support vectors (all training rows kept; zero-alpha rows skipped)
	y     []float64   // ±1 labels
	alpha []float64
	b     float64
	gamma float64
}

func rbf(a, b []float64, gamma float64) float64 {
	var s float64
	for i := range a {
		d := a[i] - b[i]
		s += d * d
	}
	return math.Exp(-gamma * s)
}

func (m *binarySVM) decision(x []float64) float64 {
	s := -m.b
	for i := range m.alpha {
		if m.alpha[i] == 0 {
			continue
		}
		s += m.alpha[i] * m.y[i] * rbf(m.x[i], x, m.gamma)
	}
	return s
}

// SVMModel is a trained one-vs-one multiclass SVM. Features are z-score
// standardized at training time (RBF distances are scale-sensitive and the
// raw feature columns span orders of magnitude); the stored mean/scale are
// applied to every prediction input.
type SVMModel struct {
	numClasses int
	pairs      []svmPair
	mean       []float64
	invStd     []float64
	scratch    []float64
}

// standardize z-scores a row into dst.
func (m *SVMModel) standardize(x []float64, dst []float64) []float64 {
	dst = dst[:0]
	for i, v := range x {
		dst = append(dst, (v-m.mean[i])*m.invStd[i])
	}
	return dst
}

type svmPair struct {
	a, b int // class labels; decision > 0 votes a, else b
	m    *binarySVM
}

// Train implements Trainer.
func (s SVM) Train(d *Dataset, st *rng.Stream) Classifier {
	return s.TrainSVM(d, st)
}

// TrainSVM trains and returns the concrete model.
func (s SVM) TrainSVM(d *Dataset, st *rng.Stream) *SVMModel {
	maxIters := s.Config.MaxIters
	if maxIters <= 0 {
		maxIters = 200
	}
	gamma := 1 / float64(max(1, d.NumFeatures()))

	// Standardize the design matrix: per-column z-scores.
	nf := d.NumFeatures()
	model := &SVMModel{
		numClasses: d.NumClasses,
		mean:       make([]float64, nf),
		invStd:     make([]float64, nf),
	}
	for j := 0; j < nf; j++ {
		var sum float64
		for _, row := range d.X {
			sum += row[j]
		}
		mu := sum / float64(d.Len())
		var ss float64
		for _, row := range d.X {
			ss += (row[j] - mu) * (row[j] - mu)
		}
		sd := math.Sqrt(ss / float64(d.Len()))
		model.mean[j] = mu
		if sd > 1e-12 {
			model.invStd[j] = 1 / sd
		} // constant columns stay 0: they carry no information
	}
	z := make([][]float64, d.Len())
	for i, row := range d.X {
		zr := make([]float64, nf)
		for j, v := range row {
			zr[j] = (v - model.mean[j]) * model.invStd[j]
		}
		z[i] = zr
	}
	zd := &Dataset{X: z, Y: d.Y, NumClasses: d.NumClasses}

	byClass := make([][]int, d.NumClasses)
	for i, y := range d.Y {
		byClass[y] = append(byClass[y], i)
	}
	for a := 0; a < d.NumClasses; a++ {
		for b := a + 1; b < d.NumClasses; b++ {
			if len(byClass[a]) == 0 || len(byClass[b]) == 0 {
				continue
			}
			m := trainBinary(zd, byClass[a], byClass[b], gamma, maxIters, st)
			model.pairs = append(model.pairs, svmPair{a: a, b: b, m: m})
		}
	}
	return model
}

// Predict implements Classifier by pairwise voting; ties break to the
// lowest label. Not safe for concurrent use (it reuses an internal
// standardization buffer).
func (m *SVMModel) Predict(x []float64) int {
	m.scratch = m.standardize(x, m.scratch)
	votes := make([]int, m.numClasses)
	for _, p := range m.pairs {
		if p.m.decision(m.scratch) > 0 {
			votes[p.a]++
		} else {
			votes[p.b]++
		}
	}
	return majorityLabel(votes)
}

// trainBinary runs simplified SMO on the rows of classes a (label +1) and
// b (label -1).
func trainBinary(d *Dataset, aRows, bRows []int, gamma float64, maxIters int, st *rng.Stream) *binarySVM {
	n := len(aRows) + len(bRows)
	m := &binarySVM{
		x:     make([][]float64, 0, n),
		y:     make([]float64, 0, n),
		alpha: make([]float64, n),
		gamma: gamma,
	}
	for _, i := range aRows {
		m.x = append(m.x, d.X[i])
		m.y = append(m.y, 1)
	}
	for _, i := range bRows {
		m.x = append(m.x, d.X[i])
		m.y = append(m.y, -1)
	}

	// Precompute the kernel matrix; pairwise training sets are small.
	k := make([][]float64, n)
	for i := range k {
		k[i] = make([]float64, n)
		for j := 0; j <= i; j++ {
			v := rbf(m.x[i], m.x[j], m.gamma)
			k[i][j] = v
			k[j][i] = v
		}
	}
	f := func(i int) float64 {
		s := -m.b
		for j := 0; j < n; j++ {
			if m.alpha[j] != 0 {
				s += m.alpha[j] * m.y[j] * k[i][j]
			}
		}
		return s
	}

	passes, iters := 0, 0
	for passes < svmMaxPass && iters < maxIters {
		iters++
		changed := 0
		for i := 0; i < n; i++ {
			ei := f(i) - m.y[i]
			if !((m.y[i]*ei < -svmTol && m.alpha[i] < svmC) || (m.y[i]*ei > svmTol && m.alpha[i] > 0)) {
				continue
			}
			j := st.Intn(n - 1)
			if j >= i {
				j++
			}
			ej := f(j) - m.y[j]
			ai, aj := m.alpha[i], m.alpha[j]
			var lo, hi float64
			if m.y[i] != m.y[j] {
				lo = math.Max(0, aj-ai)
				hi = math.Min(svmC, svmC+aj-ai)
			} else {
				lo = math.Max(0, ai+aj-svmC)
				hi = math.Min(svmC, ai+aj)
			}
			if lo == hi {
				continue
			}
			eta := 2*k[i][j] - k[i][i] - k[j][j]
			if eta >= 0 {
				continue
			}
			ajNew := aj - m.y[j]*(ei-ej)/eta
			if ajNew > hi {
				ajNew = hi
			} else if ajNew < lo {
				ajNew = lo
			}
			if math.Abs(ajNew-aj) < 1e-5 {
				continue
			}
			aiNew := ai + m.y[i]*m.y[j]*(aj-ajNew)
			m.alpha[i], m.alpha[j] = aiNew, ajNew

			b1 := m.b + ei + m.y[i]*(aiNew-ai)*k[i][i] + m.y[j]*(ajNew-aj)*k[i][j]
			b2 := m.b + ej + m.y[i]*(aiNew-ai)*k[i][j] + m.y[j]*(ajNew-aj)*k[j][j]
			switch {
			case aiNew > 0 && aiNew < svmC:
				m.b = b1
			case ajNew > 0 && ajNew < svmC:
				m.b = b2
			default:
				m.b = (b1 + b2) / 2
			}
			changed++
		}
		if changed == 0 {
			passes++
		} else {
			passes = 0
		}
	}

	// Drop non-support vectors to speed prediction.
	var xs [][]float64
	var ys, alphas []float64
	for i := 0; i < n; i++ {
		if m.alpha[i] > 0 {
			xs = append(xs, m.x[i])
			ys = append(ys, m.y[i])
			alphas = append(alphas, m.alpha[i])
		}
	}
	m.x, m.y, m.alpha = xs, ys, alphas
	return m
}
