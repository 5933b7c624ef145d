// Package dtree builds the debugging decision trees of BugDoc Section 4.2:
// full (unpruned) binary decision trees over pipeline parameters, with the
// instance evaluation (succeed/fail) as the target. Inner nodes test one
// parameter-comparator-value triple; categorical parameters split on
// equality, ordinal parameters on thresholds, so root-to-leaf paths are
// conjunctions of triples that may contain inequalities.
//
// BugDoc uses the tree unusually: not to predict untested configurations,
// but to discover short paths ending in pure-fail leaves. Those paths are
// the "suspects" the Debugging Decision Trees algorithm then verifies by
// executing new instances.
//
// Split search runs on the counting kernel shared with the forest learner
// (internal/split): one columnar pass per parameter over the interned value
// codes accumulates per-code succeed/fail counts, the observed codes are
// ordered by the space's shared rank table (pipeline.Space.CodeRanks) with
// integer compares, and the information gain of every candidate derives
// from those counts (prefix sums for ordinal thresholds) — O(params ×
// examples + params × values) per node rather than evaluating each
// candidate against every example.
package dtree

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/split"
)

// Example is one labelled training point: an executed instance and its
// evaluation. Weight is the label's confidence as an integer vote count —
// under a flaky-oracle quorum it is the vote margin (|succeed − fail|
// votes), so an example resolved 5–0 pulls splits five times harder than
// one resolved 3–2. Zero means 1, so deterministic single-trial sessions
// need not set it; all counting stays integer arithmetic, keeping tree
// growth deterministic. Examples labelled OutcomeInconclusive carry no
// vote either way and never affect a split or a leaf count.
type Example struct {
	Instance pipeline.Instance
	Outcome  pipeline.Outcome
	Weight   int
}

// weight normalizes the zero value to one vote.
func (ex *Example) weight() int {
	if ex.Weight <= 0 {
		return 1
	}
	return ex.Weight
}

// Node is one node of a debugging decision tree. Leaves have Yes == No ==
// nil; inner nodes route instances satisfying Split to Yes and the rest to
// No. Counts cover the training examples that reached the node, summed by
// example weight (so under a flaky quorum they are vote margins, not
// example counts).
type Node struct {
	Split    predicate.Triple
	Yes, No  *Node
	NSucceed int
	NFail    int
}

// IsLeaf reports whether the node has no children.
func (n *Node) IsLeaf() bool { return n.Yes == nil && n.No == nil }

// PureFail reports whether the node saw only failing examples.
func (n *Node) PureFail() bool { return n.NFail > 0 && n.NSucceed == 0 }

// PureSucceed reports whether the node saw only succeeding examples.
func (n *Node) PureSucceed() bool { return n.NSucceed > 0 && n.NFail == 0 }

// Build grows a full decision tree (no pruning, per the paper: "we build a
// complete decision tree") over the examples. Splitting stops only when a
// node is pure or no candidate split separates its examples — such impure
// unsplittable leaves are the paper's "mixed" leaves.
//
// Partitioning is columnar: the whole tree shares one permutation of
// example indices, and each node stably partitions its window of that
// permutation in place, so descending a level moves hi−lo int32s instead
// of copying []Example slices at every node.
func Build(s *pipeline.Space, examples []Example) *Node {
	return newBuilder(s, examples).build(0, len(examples))
}

// builder carries the state shared across every node of one Build call:
// the examples, the single index permutation the nodes partition, the
// space's rank tables and the counting kernel's scratch, so growing a tree
// allocates per node, not per candidate split and not per partition.
type builder struct {
	s        *pipeline.Space
	examples []Example
	// idx is the tree-wide permutation of example indices; each node owns
	// the window idx[lo:hi] and partitions it in place for its children.
	// tmp buffers the no-side during the stable partition.
	idx, tmp []int32
	// ranks holds each parameter's shared rank table (CodeRanks); every
	// example code is covered, since the examples predate the Build.
	ranks [][]int32
	// col accumulates succeed/fail counts per value code of the parameter
	// being scored.
	col split.Column[labels]
}

func newBuilder(s *pipeline.Space, examples []Example) *builder {
	b := &builder{
		s:        s,
		examples: examples,
		idx:      make([]int32, len(examples)),
		tmp:      make([]int32, 0, len(examples)),
		ranks:    make([][]int32, s.Len()),
	}
	for i := range b.idx {
		b.idx[i] = int32(i)
	}
	for i := range b.ranks {
		b.ranks[i] = s.CodeRanks(i)
	}
	return b
}

// labels is the kernel statistic of the debugging tree: weighted succeed
// and fail votes.
type labels struct{ s, f int }

func (a labels) Add(b labels) labels { return labels{a.s + b.s, a.f + b.f} }

// vote is the example's label contribution; ok is false for inconclusive
// examples, which carry no vote.
func (ex *Example) vote() (l labels, ok bool) {
	switch ex.Outcome {
	case pipeline.Succeed:
		return labels{s: ex.weight()}, true
	case pipeline.Fail:
		return labels{f: ex.weight()}, true
	}
	return labels{}, false
}

func (b *builder) build(lo, hi int) *Node {
	n := &Node{}
	for _, j := range b.idx[lo:hi] {
		l, _ := b.examples[j].vote()
		n.NSucceed += l.s
		n.NFail += l.f
	}
	if n.NSucceed == 0 || n.NFail == 0 || hi-lo < 2 {
		return n
	}
	sp, ok := b.bestSplitRange(lo, hi)
	if !ok {
		return n
	}
	// Stable in-place partition of the node's index window: yes-side
	// compacts to the front, no-side stages through the shared scratch.
	// The test is the split's code form — a rank comparison for "<=", a
	// code comparison for "=" — which holds exactly when the triple holds
	// on the value. tmp is free to reuse in the recursive calls because
	// its contents are copied back before they run.
	ranks := b.ranks[sp.param]
	thr := ranks[sp.code]
	mid := lo
	tmp := b.tmp[:0]
	for _, j := range b.idx[lo:hi] {
		c := b.examples[j].Instance.Code(sp.param)
		var yes bool
		if sp.t.Cmp == predicate.Le {
			yes = ranks[c] <= thr
		} else {
			yes = c == sp.code
		}
		if yes {
			b.idx[mid] = j
			mid++
		} else {
			tmp = append(tmp, j)
		}
	}
	copy(b.idx[mid:hi], tmp)
	n.Split = sp.t
	n.Yes = b.build(lo, mid)
	n.No = b.build(mid, hi)
	return n
}

// choice is a chosen split: the triple and its code form, the parameter
// position and the value code the triple compares against.
type choice struct {
	t     predicate.Triple
	param int
	code  uint32
}

// bestSplit is the slice-facing form of bestSplitRange, kept as the entry
// point for the differential split tests: it searches the whole example
// list through a throwaway builder. Build's internal nodes use
// bestSplitRange directly on the shared permutation.
func bestSplit(s *pipeline.Space, examples []Example) (predicate.Triple, bool) {
	sp, ok := newBuilder(s, examples).bestSplitRange(0, len(examples))
	return sp.t, ok
}

// bestSplitRange evaluates every candidate triple over the examples of the
// node's index window idx[lo:hi] and returns the one with the highest
// information gain, breaking ties by the canonical triple order so the tree
// is deterministic. Because the paper builds a *complete* tree, zero-gain
// splits are still taken when they separate the examples (greedy gain alone
// deadlocks on XOR-structured data, leaving pure-fail regions
// undiscovered); ok is false only when no candidate separates the examples
// at all.
//
// The search runs on the shared counting kernel: one columnar pass per
// parameter accumulates per-value-code succeed/fail counts, the gain of
// every "=" candidate falls out of the per-code counts, and every "<="
// candidate falls out of prefix sums over the rank-ordered codes —
// O(params × examples + params × values) per node instead of the naive
// O(params × values × examples). The gain arithmetic is identical to
// evaluating each candidate against the example list, so the chosen split
// (including tie-breaks) matches the naive search exactly.
func (b *builder) bestSplitRange(lo, hi int) (choice, bool) {
	s := b.s
	window := b.idx[lo:hi]
	var tot labels
	for _, j := range window {
		l, _ := b.examples[j].vote()
		tot = tot.Add(l)
	}
	// Weighted example mass; equals len(window) for unit weights, so the
	// gain arithmetic (and every tie-break) of a deterministic session is
	// unchanged.
	total := float64(tot.s + tot.f)
	baseH := entropyCounts(float64(tot.s), float64(tot.f))
	var best choice
	bestGain := -1.0
	for i := 0; i < s.Len(); i++ {
		p := s.At(i)
		ranks := b.ranks[i]
		op := predicate.Eq
		if p.Kind == pipeline.Ordinal {
			op = predicate.Le
		}
		// consider scores the candidate "p op value(code)" whose yes side
		// holds the votes yes. The triple is resolved only when the
		// candidate wins outright or must break a tie canonically.
		consider := func(code uint32, yes labels) {
			nYes, nNo := yes.s+yes.f, tot.s+tot.f-yes.s-yes.f
			if nYes == 0 || nNo == 0 {
				return
			}
			gain := baseH -
				float64(nYes)/total*entropyCounts(float64(yes.s), float64(yes.f)) -
				float64(nNo)/total*entropyCounts(float64(tot.s-yes.s), float64(tot.f-yes.f))
			win := gain > bestGain+1e-12
			tie := !win && math.Abs(gain-bestGain) <= 1e-12 && bestGain >= 0
			if !win && !tie {
				return
			}
			c := choice{t: predicate.T(p.Name, op, s.InternedValue(i, code)), param: i, code: code}
			if win || c.t.Less(best.t) {
				best, bestGain = c, gain
			}
		}
		// Columnar pass: count labels per value code of parameter i.
		b.col.Reset(len(ranks))
		for _, j := range window {
			ex := &b.examples[j]
			if l, ok := ex.vote(); ok { // inconclusive: no vote, no threshold of its own
				st := b.col.At(ex.Instance.Code(i))
				*st = st.Add(l)
			}
		}
		b.col.Rank(ranks)
		if op == predicate.Eq {
			b.col.Each(consider)
		} else {
			// Thresholds between consecutive observed values: testing
			// "<= v" for each observed v covers them all (the largest is
			// rejected by consider's empty-no-side guard when nothing
			// exceeds it). NaN values — possible only through
			// out-of-domain instances — never satisfy any "<=" and are
			// never thresholds themselves (Prefix leaves them out), so
			// their examples land on every no side, exactly as Holds
			// evaluates them.
			b.col.Prefix(ranks, consider)
		}
	}
	// A separating split always exists unless the examples coincide on
	// every parameter (bestGain stays -1 in that case).
	if bestGain < 0 {
		return choice{}, false
	}
	return best, true
}

// entropyCounts is the Shannon entropy of a succeed/fail count pair.
func entropyCounts(s, f float64) float64 {
	total := s + f
	h := 0.0
	for _, c := range []float64{s, f} {
		if c > 0 {
			p := c / total
			h -= p * math.Log2(p)
		}
	}
	return h
}

// Suspect is a root-to-leaf path ending in a pure-fail leaf: a conjunction
// of triples that, on the evidence so far, always fails. Support counts the
// failing examples in the leaf.
type Suspect struct {
	Path    predicate.Conjunction
	Support int
}

// Suspects extracts all pure-fail paths, shortest first (ties broken by
// higher support, then lexicographically) — the order in which the
// Debugging Decision Trees algorithm tests them, since shorter paths make
// more concise root causes.
func (n *Node) Suspects() []Suspect {
	var out []Suspect
	var walk func(node *Node, path predicate.Conjunction)
	walk = func(node *Node, path predicate.Conjunction) {
		if node.IsLeaf() {
			if node.PureFail() {
				out = append(out, Suspect{Path: path.Canonical(), Support: node.NFail})
			}
			return
		}
		walk(node.Yes, append(path.Clone(), node.Split))
		walk(node.No, append(path.Clone(), node.Split.Negated()))
	}
	walk(n, nil)
	sort.Slice(out, func(i, j int) bool {
		if len(out[i].Path) != len(out[j].Path) {
			return len(out[i].Path) < len(out[j].Path)
		}
		if out[i].Support != out[j].Support {
			return out[i].Support > out[j].Support
		}
		return out[i].Path.String() < out[j].Path.String()
	})
	return out
}

// MixedLeaves counts impure leaves, a diagnostic for how separable the
// provenance currently is.
func (n *Node) MixedLeaves() int {
	if n.IsLeaf() {
		if !n.PureFail() && !n.PureSucceed() {
			return 1
		}
		return 0
	}
	return n.Yes.MixedLeaves() + n.No.MixedLeaves()
}

// Depth returns the height of the tree (leaves have depth 1).
func (n *Node) Depth() int {
	if n.IsLeaf() {
		return 1
	}
	d := n.Yes.Depth()
	if nd := n.No.Depth(); nd > d {
		d = nd
	}
	return d + 1
}

// String renders the tree with indentation, for debugging and examples.
func (n *Node) String() string {
	var b strings.Builder
	var walk func(node *Node, indent string, label string)
	walk = func(node *Node, indent, label string) {
		if node.IsLeaf() {
			state := "mixed"
			if node.PureFail() {
				state = "fail"
			} else if node.PureSucceed() {
				state = "succeed"
			}
			fmt.Fprintf(&b, "%s%s[%s: %d succeed, %d fail]\n", indent, label, state, node.NSucceed, node.NFail)
			return
		}
		fmt.Fprintf(&b, "%s%s%s?\n", indent, label, node.Split)
		walk(node.Yes, indent+"  ", "yes: ")
		walk(node.No, indent+"  ", "no:  ")
	}
	walk(n, "", "")
	return b.String()
}
