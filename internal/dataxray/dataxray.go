// Package dataxray implements the Data X-Ray baseline of Section 5 (Wang,
// Dong, Meliou; SIGMOD 2015), adapted from hierarchical feature sets to the
// flat parameter-value features of pipeline provenance, as the paper does
// when it feeds BugDoc/SMAC instances into Data X-Ray's feature model.
//
// Data X-Ray explains the erroneous elements of a dataset by choosing a set
// of features (here: conjunctions of parameter-equality-value pairs) that
// covers all errors while minimizing a diagnosis cost with three parts —
// conciseness (a fixed cost per feature), false positives (cost for correct
// elements the feature covers), and false negatives (cost for errors left
// uncovered). The greedy cover below mirrors that objective. Explanations
// are equality-only and not necessarily minimal, reproducing the behaviour
// the BugDoc paper reports: high recall, low precision.
package dataxray

import (
	"sort"

	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/provenance"
)

// Options tunes the diagnosis; zero values take defaults.
type Options struct {
	// Alpha is the fixed cost per selected feature (conciseness pressure,
	// default 1.0).
	Alpha float64
	// FalsePositiveCost is the cost per succeeding instance covered by a
	// selected feature (default 2.0).
	FalsePositiveCost float64
	// MaxConjunction bounds the feature size in parameter-value pairs
	// (default 2).
	MaxConjunction int
	// MaxFailUncovered stops the cover early when fewer failing instances
	// than this remain (default 0: cover everything coverable).
	MaxFailUncovered int
}

func (o Options) withDefaults() Options {
	if o.Alpha <= 0 {
		o.Alpha = 1.0
	}
	if o.FalsePositiveCost <= 0 {
		o.FalsePositiveCost = 2.0
	}
	if o.MaxConjunction <= 0 {
		o.MaxConjunction = 2
	}
	return o
}

// feature is a candidate explanation with its coverage statistics.
type feature struct {
	conj    predicate.Conjunction
	failSet []int // indices into the failing instance list
	okCount int   // succeeding instances covered
}

// Diagnose derives root-cause explanations from provenance: a set of
// equality conjunctions covering the failing instances at minimal cost.
func Diagnose(s *pipeline.Space, st *provenance.Store, opts Options) (predicate.DNF, error) {
	opts = opts.withDefaults()
	failing := st.Failing()
	succeeding := st.Succeeding()
	if len(failing) == 0 {
		return predicate.DNF{}, nil
	}

	candidates := buildFeatures(s, failing, succeeding, opts)
	covered := make([]bool, len(failing))
	remaining := len(failing)
	var chosen predicate.DNF

	for remaining > opts.MaxFailUncovered {
		bestIdx := -1
		bestScore := 0.0
		for i, f := range candidates {
			newCovered := 0
			for _, fi := range f.failSet {
				if !covered[fi] {
					newCovered++
				}
			}
			if newCovered == 0 {
				continue
			}
			// Cost per newly explained error: fixed cost plus false
			// positive penalty, amortized.
			cost := (opts.Alpha + opts.FalsePositiveCost*float64(f.okCount)) / float64(newCovered)
			if bestIdx < 0 || cost < bestScore {
				bestIdx, bestScore = i, cost
			}
		}
		if bestIdx < 0 {
			break
		}
		f := candidates[bestIdx]
		chosen = append(chosen, f.conj)
		for _, fi := range f.failSet {
			if !covered[fi] {
				covered[fi] = true
				remaining--
			}
		}
		candidates = append(candidates[:bestIdx], candidates[bestIdx+1:]...)
	}
	return chosen.Canonical(), nil
}

// buildFeatures enumerates single parameter-value features drawn from the
// failing instances and, when allowed, their pairwise conjunctions. Pure
// features (covering no succeeding instance) are kept even when small;
// impure singles are kept too — Data X-Ray trades precision for coverage.
func buildFeatures(s *pipeline.Space, failing, succeeding []pipeline.Instance, opts Options) []feature {
	type pv struct {
		param int
		value pipeline.Value
	}
	seen := make(map[pv]bool)
	var singles []pv
	for _, in := range failing {
		for i := 0; i < s.Len(); i++ {
			key := pv{i, in.Value(i)}
			if !seen[key] {
				seen[key] = true
				singles = append(singles, key)
			}
		}
	}
	sort.Slice(singles, func(a, b int) bool {
		if singles[a].param != singles[b].param {
			return singles[a].param < singles[b].param
		}
		return singles[a].value.Less(singles[b].value)
	})

	mk := func(pairs ...pv) feature {
		var c predicate.Conjunction
		for _, p := range pairs {
			c = append(c, predicate.T(s.At(p.param).Name, predicate.Eq, p.value))
		}
		c = c.Canonical()
		f := feature{conj: c}
		m := c.Compile(s)
		for fi, in := range failing {
			if m.Match(in) {
				f.failSet = append(f.failSet, fi)
			}
		}
		for _, in := range succeeding {
			if m.Match(in) {
				f.okCount++
			}
		}
		return f
	}

	var out []feature
	for _, a := range singles {
		out = append(out, mk(a))
	}
	if opts.MaxConjunction >= 2 {
		for i := 0; i < len(singles); i++ {
			for j := i + 1; j < len(singles); j++ {
				if singles[i].param == singles[j].param {
					continue
				}
				f := mk(singles[i], singles[j])
				if len(f.failSet) > 0 {
					out = append(out, f)
				}
			}
		}
	}
	return out
}
