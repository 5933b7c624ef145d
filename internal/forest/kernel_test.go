package forest

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/pipeline"
)

// refNode is a tree grown by the reference split search: the partitioning
// search the counting kernel replaced. Each node keeps the sample window
// it was grown from, so a divergence can be re-scored under the
// reference arithmetic.
type refNode struct {
	param     int
	threshold float64
	category  string
	ordinal   bool
	bestVar   float64
	window    []int

	yes, no *refNode
	mean    float64
}

func (n *refNode) test(in pipeline.Instance) bool {
	v := in.Value(n.param)
	if n.ordinal {
		return v.Num() <= n.threshold
	}
	return v.Kind() == pipeline.Categorical && v.Str() == n.category
}

// refGrow is the reference: every (parameter, value) candidate is scored by
// repartitioning the node's whole sample (refSplitVariance), and the
// children get fresh partition slices. It consumes cfg.Rand exactly as the
// kernel does.
func refGrow(s *pipeline.Space, xs []pipeline.Instance, ys []float64, idx []int, cfg Config, mtry, depth int) *refNode {
	n := &refNode{mean: refMean(ys, idx), window: idx}
	if len(idx) < 2*cfg.MinLeaf || depth >= cfg.MaxDepth || refPure(ys, idx) {
		return n
	}
	feats := cfg.Rand.Perm(s.Len())
	if len(feats) > mtry {
		feats = feats[:mtry]
	}
	bestVar := math.Inf(1)
	found := false
	for _, pi := range feats {
		vals := refDistinct(xs, idx, pi)
		if len(vals) < 2 {
			continue
		}
		for _, val := range vals {
			cand := &refNode{param: pi, ordinal: s.At(pi).Kind == pipeline.Ordinal}
			if cand.ordinal {
				if isNaN(val) {
					continue
				}
				cand.threshold = val.Num()
			} else {
				cand.category = val.Str()
			}
			if v := refSplitVariance(xs, ys, idx, cand.test, cfg.MinLeaf); v < bestVar {
				bestVar, found = v, true
				n.param, n.ordinal, n.threshold, n.category = cand.param, cand.ordinal, cand.threshold, cand.category
			}
		}
	}
	if !found {
		return n
	}
	n.bestVar = bestVar
	var yesIdx, noIdx []int
	for _, i := range idx {
		if n.test(xs[i]) {
			yesIdx = append(yesIdx, i)
		} else {
			noIdx = append(noIdx, i)
		}
	}
	n.yes = refGrow(s, xs, ys, yesIdx, cfg, mtry, depth+1)
	n.no = refGrow(s, xs, ys, noIdx, cfg, mtry, depth+1)
	return n
}

// refDistinct returns the distinct values of parameter pi among xs[idx] in
// value order, NaN last.
func refDistinct(xs []pipeline.Instance, idx []int, pi int) []pipeline.Value {
	seen := map[uint32]bool{}
	var vals []pipeline.Value
	for _, i := range idx {
		if c := xs[i].Code(pi); !seen[c] {
			seen[c] = true
			vals = append(vals, xs[i].Value(pi))
		}
	}
	sort.Slice(vals, func(a, b int) bool {
		if na, nb := isNaN(vals[a]), isNaN(vals[b]); na || nb {
			return nb && !na
		}
		return vals[a].Less(vals[b])
	})
	return vals
}

func isNaN(v pipeline.Value) bool { return v.Kind() == pipeline.Ordinal && math.IsNaN(v.Num()) }

func refSplitVariance(xs []pipeline.Instance, ys []float64, idx []int, test func(pipeline.Instance) bool, minLeaf int) float64 {
	var yes, no []int
	for _, i := range idx {
		if test(xs[i]) {
			yes = append(yes, i)
		} else {
			no = append(no, i)
		}
	}
	if len(yes) < minLeaf || len(no) < minLeaf {
		return math.Inf(1)
	}
	return refSSE(ys, yes) + refSSE(ys, no)
}

func refSSE(ys []float64, idx []int) float64 {
	m := refMean(ys, idx)
	s := 0.0
	for _, i := range idx {
		d := ys[i] - m
		s += d * d
	}
	return s
}

func refMean(ys []float64, idx []int) float64 {
	if len(idx) == 0 {
		return 0
	}
	s := 0.0
	for _, i := range idx {
		s += ys[i]
	}
	return s / float64(len(idx))
}

func refPure(ys []float64, idx []int) bool {
	for k := 1; k < len(idx); k++ {
		if ys[idx[k]] != ys[idx[0]] {
			return false
		}
	}
	return true
}

// smacShaped draws a SMAC-shaped training set: 3–6 mixed parameters of 4–8
// values and 5–65 binary targets. With outOfDomain, some ordinal values lie
// outside the declared domain, NaN among them, so the rank tables cover
// codes interned after the space was built.
func smacShaped(r *rand.Rand, outOfDomain bool) (*pipeline.Space, []pipeline.Instance, []float64) {
	params := make([]pipeline.Parameter, 3+r.Intn(4))
	for i := range params {
		name := string(rune('a' + i))
		nv := 4 + r.Intn(5)
		if r.Intn(2) == 0 {
			dom := make([]float64, nv)
			for j := range dom {
				dom[j] = float64(r.Intn(40)) - 10
			}
			params[i] = pipeline.Parameter{Name: name, Kind: pipeline.Ordinal, Domain: ordDomain(dom...)}
		} else {
			dom := make([]string, nv)
			for j := range dom {
				dom[j] = string(rune('p' + r.Intn(10)))
			}
			params[i] = pipeline.Parameter{Name: name, Kind: pipeline.Categorical, Domain: catDomain(dom...)}
		}
	}
	s := pipeline.MustSpace(params...)
	n := 5 + r.Intn(61)
	xs := make([]pipeline.Instance, n)
	ys := make([]float64, n)
	for k := range xs {
		in := s.RandomInstance(r)
		if outOfDomain && r.Intn(4) == 0 {
			pi := r.Intn(s.Len())
			if s.At(pi).Kind == pipeline.Ordinal {
				v := pipeline.Ord(float64(r.Intn(80))/2 - 20)
				if r.Intn(3) == 0 {
					v = pipeline.Ord(math.NaN())
				}
				in = in.With(pi, v)
			}
		}
		xs[k] = in
		ys[k] = float64(r.Intn(2))
	}
	return s, xs, ys
}

// TestKernelMatchesReferenceSplitSearch grows each tree twice from the same
// bootstrap sample and Rand seed — once with the counting kernel, once with
// the reference partitioning search — and requires the same tree. The two
// score a candidate's SSE with different float arithmetic, so candidates
// the reference scores as exact ties may order differently: the trees may
// differ only where their first differing split (in preorder) scores
// within 1e-9 of the reference's best under the reference arithmetic.
func TestKernelMatchesReferenceSplitSearch(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	trees, diverged, maxGap := 0, 0, 0.0
	for set := 0; set < 300; set++ {
		s, xs, ys := smacShaped(r, set%4 == 3)
		cfg := Config{Trees: 16}.withDefaults()
		g := newGrower(s, xs, ys, cfg)
		for tree := 0; tree < cfg.Trees; tree++ {
			sample := make([]int, len(xs))
			for i := range sample {
				sample[i] = r.Intn(len(xs))
				g.idx[i] = int32(sample[i])
			}
			seed := r.Int63()
			cfg.Rand = rand.New(rand.NewSource(seed))
			g.cfg = cfg
			got := g.grow(0, len(xs), 0)
			cfg.Rand = rand.New(rand.NewSource(seed))
			want := refGrow(s, xs, ys, sample, cfg, g.mtry, 0)
			trees++
			if gap, ok := compareTrees(t, s, g.ranks, xs, ys, cfg.MinLeaf, got, want); ok {
				diverged++
				maxGap = math.Max(maxGap, gap)
			}
		}
	}
	t.Logf("%d of %d trees diverged at exact reference ties (largest SSE gap %.2g)", diverged, trees, maxGap)
}

// compareTrees walks got and want in preorder and reports whether they
// diverge, with the reference SSE gap at the first differing split; a
// divergence that is not an exact reference tie fails t.
func compareTrees(t *testing.T, s *pipeline.Space, ranks [][]int32, xs []pipeline.Instance, ys []float64, minLeaf int, got *node, want *refNode) (gap float64, diverged bool) {
	t.Helper()
	if got.mean != want.mean {
		t.Fatalf("leaf mean %v, reference %v", got.mean, want.mean)
	}
	gotLeaf, wantLeaf := got.yes == nil, want.yes == nil
	if gotLeaf != wantLeaf {
		t.Fatalf("kernel leaf=%v, reference leaf=%v", gotLeaf, wantLeaf)
	}
	if gotLeaf {
		return 0, false
	}
	if !sameSplit(s, got, want) {
		v := refSplitVariance(xs, ys, want.window, func(in pipeline.Instance) bool { return got.test(ranks, in) }, minLeaf)
		if gap = math.Abs(v - want.bestVar); gap > 1e-9 {
			t.Fatalf("kernel split (param %d, code %d) scores %v under the reference, reference best is %v (param %d)",
				got.param, got.code, v, want.bestVar, want.param)
		}
		return gap, true
	}
	if gap, diverged = compareTrees(t, s, ranks, xs, ys, minLeaf, got.yes, want.yes); diverged {
		return gap, true
	}
	return compareTrees(t, s, ranks, xs, ys, minLeaf, got.no, want.no)
}

func sameSplit(s *pipeline.Space, got *node, want *refNode) bool {
	if got.param != want.param || got.ordinal != want.ordinal {
		return false
	}
	if got.ordinal {
		return got.threshold == want.threshold
	}
	return s.InternedValue(got.param, got.code).Str() == want.category
}
