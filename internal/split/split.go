// Package split is the counting split kernel shared by the two tree
// learners: dtree (the debugging decision trees of BugDoc Section 4.2) and
// forest (the random-forest surrogate of the SMAC baseline).
//
// A node scores every candidate test on one parameter from a single
// columnar pass over its examples. The pass accumulates per-value-code
// sufficient statistics in a Column — integer label counts for dtree;
// count, sum and sum of squares for the forest. The observed codes are then
// put in value order by their integer ranks (pipeline.Space.CodeRanks), and
// the candidates come straight out of the statistics: an equality test
// "value == v" from v's own statistics, an ordinal threshold "value <= v"
// from the prefix sum over every code ranked at or below v. That is
// O(examples + values) per parameter and node, instead of partitioning the
// node's examples once per candidate.
package split

import (
	"cmp"
	"math"
	"slices"
)

// Stat is a per-code sufficient statistic; Add merges two of them.
type Stat[S any] interface {
	Add(S) S
}

// Column holds one parameter's per-code statistics over one node's
// examples. A learner keeps one Column per build and reuses it for every
// parameter of every node: Reset, accumulate through At, Rank, then read
// the candidates with Each or Prefix.
type Column[S Stat[S]] struct {
	stats []S      // per value code; zero except at observed codes
	seen  []bool   // per value code: observed since the last Reset
	order []uint32 // observed codes, first-seen order until Rank
}

// Reset empties the column for a parameter whose codes are all below n.
func (c *Column[S]) Reset(n int) {
	var zero S
	for _, code := range c.order {
		c.stats[code] = zero
		c.seen[code] = false
	}
	c.order = c.order[:0]
	if len(c.stats) < n {
		c.stats = make([]S, n)
		c.seen = make([]bool, n)
	}
}

// At returns code's statistics for accumulation, recording code as
// observed on first use.
func (c *Column[S]) At(code uint32) *S {
	if !c.seen[code] {
		c.seen[code] = true
		c.order = append(c.order, code)
	}
	return &c.stats[code]
}

// Rank sorts the observed codes into value order by their entries in the
// parameter's rank table and returns how many codes were observed.
func (c *Column[S]) Rank(ranks []int32) int {
	slices.SortFunc(c.order, func(a, b uint32) int { return cmp.Compare(ranks[a], ranks[b]) })
	return len(c.order)
}

// Each calls f with every observed code and its statistics, in rank order:
// the yes sides of the equality candidates "value == v".
func (c *Column[S]) Each(f func(code uint32, own S)) {
	for _, code := range c.order {
		f(code, c.stats[code])
	}
}

// Prefix calls f, in rank order, with every observed code that can serve
// as an ordinal threshold and the summed statistics of the codes ranked at
// or below it: the yes sides of the threshold candidates "value <= v". The
// NaN code (ranked math.MaxInt32, last) satisfies no threshold and is none
// itself, so it stays out of every prefix and lands on every no side.
func (c *Column[S]) Prefix(ranks []int32, f func(code uint32, prefix S)) {
	var cum S
	for _, code := range c.order {
		if ranks[code] == math.MaxInt32 {
			return
		}
		cum = cum.Add(c.stats[code])
		f(code, cum)
	}
}
