// Package exptables implements the Explanation Tables baseline of Section 5
// (El Gebaly, Agrawal, Golab, Korn, Srivastava; VLDB 2014), adapted to
// pipeline provenance: rows are executed instances, the binary outcome is
// the evaluation, and patterns are conjunctions of parameter-equality-value
// pairs with wildcards elsewhere.
//
// The algorithm greedily selects the pattern with the highest information
// gain with respect to the current maximum-entropy-style estimate of the
// outcome, drawing candidate patterns from the lowest-common-ancestor
// lattice of samples of failing rows (the paper's "flashlight" sampling
// strategy). As the BugDoc paper observes, the resulting explanations are
// equality-only with high precision but low recall.
package exptables

import (
	"encoding/binary"
	"math"
	"math/rand"
	"sort"

	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/provenance"
)

// Pattern is one explanation-table row: a conjunction of equalities (the
// non-wildcard attributes), the fraction of matching instances that fail,
// and the match count.
type Pattern struct {
	Conj     predicate.Conjunction
	FailRate float64
	Support  int
}

// Options tunes table construction; zero values take defaults.
type Options struct {
	// Rand drives the flashlight sampling; deterministic default.
	Rand *rand.Rand
	// MaxPatterns bounds the explanation table size (default 8).
	MaxPatterns int
	// SampleSize is the number of failing rows sampled per round for LCA
	// candidate generation (default 8).
	SampleSize int
	// MinGain stops when the best candidate's gain falls below it
	// (default 1e-9).
	MinGain float64
}

func (o Options) withDefaults() Options {
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
	if o.MaxPatterns <= 0 {
		o.MaxPatterns = 8
	}
	if o.SampleSize <= 0 {
		o.SampleSize = 8
	}
	if o.MinGain <= 0 {
		o.MinGain = 1e-9
	}
	return o
}

// Explain builds an explanation table for the provenance.
func Explain(s *pipeline.Space, st *provenance.Store, opts Options) []Pattern {
	opts = opts.withDefaults()
	recs := st.Snapshot().Records()
	if len(recs) == 0 {
		return nil
	}
	rows := make([]pipeline.Instance, len(recs))
	outcome := make([]float64, len(recs))
	var failIdx []int
	for i, r := range recs {
		rows[i] = r.Instance
		if r.Outcome == pipeline.Fail {
			outcome[i] = 1
			failIdx = append(failIdx, i)
		}
	}

	// The estimate starts from the all-wildcard pattern (overall rate).
	est := make([]float64, len(rows))
	overall := meanOf(outcome)
	for i := range est {
		est[i] = overall
	}
	var table []Pattern

	for len(table) < opts.MaxPatterns {
		cands := candidates(s, rows, failIdx, opts)
		best, bestGain := Pattern{}, 0.0
		for _, c := range cands {
			m := c.Compile(s)
			g := gain(m, rows, outcome, est)
			if g > bestGain {
				best, bestGain = summarize(c, m, rows, outcome), g
			}
		}
		if bestGain < opts.MinGain || len(best.Conj) == 0 {
			break
		}
		table = append(table, best)
		// Update the estimate: rows matched by the new pattern take its
		// rate (most-specific-pattern approximation of the max-ent model).
		m := best.Conj.Compile(s)
		for i, in := range rows {
			if m.Match(in) {
				est[i] = best.FailRate
			}
		}
	}
	sort.Slice(table, func(i, j int) bool {
		if table[i].FailRate != table[j].FailRate {
			return table[i].FailRate > table[j].FailRate
		}
		return table[i].Support > table[j].Support
	})
	return table
}

// AsCauses converts the table into asserted root causes: the patterns whose
// matching rows all fail (the rows a debugger would act on).
func AsCauses(table []Pattern) predicate.DNF {
	var out predicate.DNF
	for _, p := range table {
		if p.FailRate >= 0.999 && len(p.Conj) > 0 {
			out = append(out, p.Conj)
		}
	}
	return out.Canonical()
}

// candidates generates patterns: the LCAs (shared parameter-value pairs) of
// random pairs/triples of failing rows, plus every single parameter-value
// pair from a sample of failing rows.
func candidates(s *pipeline.Space, rows []pipeline.Instance, failIdx []int, opts Options) []predicate.Conjunction {
	if len(failIdx) == 0 {
		return nil
	}
	r := opts.Rand
	// A pattern asserts row in's values on a set of parameters. Its key is
	// the (parameter index, value code) pairs in parameter order, so equal
	// patterns are recognised without building or rendering them; the
	// first-seen one is kept.
	seen := make(map[string]bool)
	var out []predicate.Conjunction
	var key []byte
	add := func(in pipeline.Instance, params []int) {
		if len(params) == 0 {
			return
		}
		key = key[:0]
		for _, i := range params {
			key = binary.LittleEndian.AppendUint32(key, uint32(i))
			key = binary.LittleEndian.AppendUint32(key, in.Code(i))
		}
		if seen[string(key)] {
			return
		}
		seen[string(key)] = true
		c := make(predicate.Conjunction, len(params))
		for k, i := range params {
			c[k] = predicate.T(s.At(i).Name, predicate.Eq, in.Value(i))
		}
		out = append(out, c.Canonical())
	}
	sample := func() pipeline.Instance {
		return rows[failIdx[r.Intn(len(failIdx))]]
	}
	params := make([]int, 0, s.Len())
	for i := 0; i < opts.SampleSize; i++ {
		a, b := sample(), sample()
		add(a, lca(s, a, b, params[:0]))
		add(a, lca(s, a, sample(), params[:0])) // a second LCA partner widens the lattice
		// Singles from a.
		for pi := 0; pi < s.Len(); pi++ {
			add(a, append(params[:0], pi))
		}
	}
	return out
}

// lca appends to dst the parameters of the most specific pattern matching
// both instances: equalities on the parameters where they agree.
func lca(s *pipeline.Space, a, b pipeline.Instance, dst []int) []int {
	for i := 0; i < s.Len(); i++ {
		if a.Value(i) == b.Value(i) {
			dst = append(dst, i)
		}
	}
	return dst
}

// gain scores a candidate pattern: the reduction in total KL divergence
// between the observed outcomes and the estimate if the pattern's rate
// replaced the estimate on its matching rows.
func gain(m predicate.Matcher, rows []pipeline.Instance, outcome, est []float64) float64 {
	var match []int
	for i, in := range rows {
		if m.Match(in) {
			match = append(match, i)
		}
	}
	if len(match) == 0 {
		return 0
	}
	rate := 0.0
	for _, i := range match {
		rate += outcome[i]
	}
	rate /= float64(len(match))
	g := 0.0
	for _, i := range match {
		g += klBernoulli(outcome[i], est[i]) - klBernoulli(outcome[i], rate)
	}
	return g
}

// summarize computes c's table row; m is c compiled.
func summarize(c predicate.Conjunction, m predicate.Matcher, rows []pipeline.Instance, outcome []float64) Pattern {
	p := Pattern{Conj: c.Canonical()}
	for i, in := range rows {
		if m.Match(in) {
			p.Support++
			p.FailRate += outcome[i]
		}
	}
	if p.Support > 0 {
		p.FailRate /= float64(p.Support)
	}
	return p
}

// klBernoulli is KL(p || q) for Bernoulli distributions with clamping.
func klBernoulli(p, q float64) float64 {
	const eps = 1e-9
	q = math.Min(math.Max(q, eps), 1-eps)
	p = math.Min(math.Max(p, eps), 1-eps)
	return p*math.Log(p/q) + (1-p)*math.Log((1-p)/(1-q))
}

func meanOf(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := 0.0
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}
