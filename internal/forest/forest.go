// Package forest implements random-forest regression over mixed
// ordinal/categorical pipeline parameters: bagged CART trees with random
// feature subsets and variance estimates across trees. It is the surrogate
// model substrate for the SMAC baseline (sequential model-based algorithm
// configuration uses random-forest surrogates; Hutter et al., LION 2011).
//
// Trees grow on the counting split kernel shared with the dtree learner
// (internal/split). Each tree partitions one index permutation — its
// bootstrap sample — stably and in place, so every node owns a window of
// it. A node scores its mtry random features with one columnar pass each,
// accumulating count, sum and sum of squares of the targets per value code;
// the observed codes are ordered by the space's shared rank table
// (pipeline.Space.CodeRanks), and each candidate's children SSE follows
// from those moments (Σy² − (Σy)²/n per side), with ordinal thresholds
// read off prefix sums in rank order. That is O(mtry × (examples +
// values)) per node. The chosen split is stored in code form — a rank
// threshold for ordinals, a code for categoricals — and tests instances
// with integer compares in training and in Predict alike.
package forest

import (
	"math"
	"math/rand"

	"repro/internal/pipeline"
	"repro/internal/split"
)

// Config controls forest training; zero values take defaults.
type Config struct {
	// Trees is the ensemble size (default 16).
	Trees int
	// MinLeaf is the minimum examples per leaf (default 2).
	MinLeaf int
	// MaxDepth bounds tree depth (default 16).
	MaxDepth int
	// Rand drives bootstrap and feature sampling; deterministic default.
	Rand *rand.Rand
}

func (c Config) withDefaults() Config {
	if c.Trees <= 0 {
		c.Trees = 16
	}
	if c.MinLeaf <= 0 {
		c.MinLeaf = 2
	}
	if c.MaxDepth <= 0 {
		c.MaxDepth = 16
	}
	if c.Rand == nil {
		c.Rand = rand.New(rand.NewSource(1))
	}
	return c
}

// Forest is a trained ensemble.
type Forest struct {
	space *pipeline.Space
	// ranks holds each parameter's rank table as of Train; the trees'
	// ordinal splits are rank thresholds in these tables.
	ranks [][]int32
	trees []*node
}

type node struct {
	// Split on parameter param. For an ordinal parameter the test is
	// value <= threshold, held as ranks[param][c] <= rank for the
	// instance's code c; threshold keeps the value for codes interned
	// after Train, which the rank table does not cover. For a categorical
	// parameter the test is c == code: a category interned after Train
	// differs from every trained one.
	param     int
	ordinal   bool
	rank      int32
	code      uint32
	threshold float64

	yes, no *node
	mean    float64
}

// Train fits a forest to instances xs with targets ys.
func Train(s *pipeline.Space, xs []pipeline.Instance, ys []float64, cfg Config) *Forest {
	cfg = cfg.withDefaults()
	f := &Forest{space: s}
	if len(xs) == 0 {
		return f
	}
	g := newGrower(s, xs, ys, cfg)
	f.ranks = g.ranks
	for t := 0; t < cfg.Trees; t++ {
		for i := range g.idx {
			g.idx[i] = int32(cfg.Rand.Intn(len(xs)))
		}
		f.trees = append(f.trees, g.grow(0, len(xs), 0))
	}
	return f
}

// grower is the per-Train working state: the training data, the rank
// tables, the current tree's bootstrap sample — an index permutation every
// node partitions in place — and the counting kernel's scratch.
type grower struct {
	s     *pipeline.Space
	xs    []pipeline.Instance
	ys    []float64
	ranks [][]int32
	cfg   Config
	mtry  int
	// idx is the current tree's bootstrap sample; each node owns the
	// window idx[lo:hi]. tmp stages the no side of a partition.
	idx, tmp []int32
	col      split.Column[moments]
}

func newGrower(s *pipeline.Space, xs []pipeline.Instance, ys []float64, cfg Config) *grower {
	g := &grower{
		s: s, xs: xs, ys: ys, cfg: cfg,
		mtry:  int(math.Ceil(math.Sqrt(float64(s.Len())))),
		ranks: make([][]int32, s.Len()),
		idx:   make([]int32, len(xs)),
		tmp:   make([]int32, 0, len(xs)),
	}
	for i := range g.ranks {
		g.ranks[i] = s.CodeRanks(i)
	}
	return g
}

// moments is the forest's kernel statistic: the count, sum and sum of
// squares of the targets.
type moments struct {
	n       int
	sum, sq float64
}

func (a moments) Add(b moments) moments { return moments{a.n + b.n, a.sum + b.sum, a.sq + b.sq} }

func (a moments) sub(b moments) moments { return moments{a.n - b.n, a.sum - b.sum, a.sq - b.sq} }

// sse is the sum of squared deviations from the mean, Σy² − (Σy)²/n.
func (a moments) sse() float64 { return a.sq - a.sum*a.sum/float64(a.n) }

// grow builds the subtree over the window idx[lo:hi]. Rand consumption is
// one Perm per split-eligible node, in preorder (yes subtree first).
func (g *grower) grow(lo, hi, depth int) *node {
	w := g.idx[lo:hi]
	n := &node{mean: g.mean(w)}
	if len(w) < 2*g.cfg.MinLeaf || depth >= g.cfg.MaxDepth || g.pure(w) {
		return n
	}
	// Random feature subset.
	feats := g.cfg.Rand.Perm(g.s.Len())
	if len(feats) > g.mtry {
		feats = feats[:g.mtry]
	}
	var tot moments
	for _, j := range w {
		y := g.ys[j]
		tot = tot.Add(moments{1, y, y * y})
	}
	minLeaf := g.cfg.MinLeaf
	bestSSE := math.Inf(1)
	found := false
	for _, pi := range feats {
		ranks := g.ranks[pi]
		g.col.Reset(len(ranks))
		for _, j := range w {
			y := g.ys[j]
			m := g.col.At(g.xs[j].Code(pi))
			m.n++
			m.sum += y
			m.sq += y * y
		}
		if g.col.Rank(ranks) < 2 {
			continue
		}
		// The first strictly better candidate wins, in feature order and
		// then rank order, so exact ties keep the earliest candidate.
		ordinal := g.s.At(pi).Kind == pipeline.Ordinal
		consider := func(code uint32, yes moments) {
			no := tot.sub(yes)
			if yes.n < minLeaf || no.n < minLeaf {
				return
			}
			if v := yes.sse() + no.sse(); v < bestSSE {
				bestSSE, found = v, true
				n.param, n.ordinal, n.code, n.rank = pi, ordinal, code, ranks[code]
			}
		}
		if ordinal {
			g.col.Prefix(ranks, consider)
		} else {
			g.col.Each(consider)
		}
	}
	if !found {
		return n
	}
	if n.ordinal {
		n.threshold = g.s.InternedValue(n.param, n.code).Num()
	}
	// Stable in-place partition: the yes side compacts to the front, the
	// no side stages through tmp, so each child window keeps the sample
	// order (and the mean its summation order). Both sides hold at least
	// MinLeaf examples, since the split passed consider's guard.
	mid := lo
	tmp := g.tmp[:0]
	for _, j := range w {
		if n.test(g.ranks, g.xs[j]) {
			g.idx[mid] = j
			mid++
		} else {
			tmp = append(tmp, j)
		}
	}
	copy(g.idx[mid:hi], tmp)
	n.yes = g.grow(lo, mid, depth+1)
	n.no = g.grow(mid, hi, depth+1)
	return n
}

// test reports whether in takes the split's yes branch.
func (n *node) test(ranks [][]int32, in pipeline.Instance) bool {
	c := in.Code(n.param)
	if !n.ordinal {
		return c == n.code
	}
	if r := ranks[n.param]; int(c) < len(r) {
		return r[c] <= n.rank
	}
	return in.Value(n.param).Num() <= n.threshold
}

func (n *node) predict(ranks [][]int32, in pipeline.Instance) float64 {
	for n.yes != nil && n.no != nil {
		if n.test(ranks, in) {
			n = n.yes
		} else {
			n = n.no
		}
	}
	return n.mean
}

// Predict returns the ensemble mean and variance for one instance. An
// empty forest predicts (0, 0), as does an instance from a different
// space: tree tests index parameters by this space's positions, so a
// foreign instance could panic or silently misread. Forests of up to 64
// trees predict without allocating.
//
//bugdoc:hotpath
func (f *Forest) Predict(in pipeline.Instance) (mu, variance float64) {
	if len(f.trees) == 0 || in.Space() != f.space {
		return 0, 0
	}
	var buf [64]float64
	preds := buf[:0]
	if len(f.trees) > len(buf) {
		preds = make([]float64, 0, len(f.trees))
	}
	for _, t := range f.trees {
		p := t.predict(f.ranks, in)
		preds = append(preds, p)
		mu += p
	}
	mu /= float64(len(f.trees))
	for _, p := range preds {
		variance += (p - mu) * (p - mu)
	}
	variance /= float64(len(f.trees))
	return mu, variance
}

// Len returns the number of trees.
func (f *Forest) Len() int { return len(f.trees) }

func (g *grower) mean(w []int32) float64 {
	if len(w) == 0 {
		return 0
	}
	s := 0.0
	for _, j := range w {
		s += g.ys[j]
	}
	return s / float64(len(w))
}

func (g *grower) pure(w []int32) bool {
	for k := 1; k < len(w); k++ {
		if g.ys[w[k]] != g.ys[w[0]] {
			return false
		}
	}
	return true
}
