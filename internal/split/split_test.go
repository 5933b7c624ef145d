package split

import (
	"math"
	"slices"
	"testing"
)

type count int

func (a count) Add(b count) count { return a + b }

func TestColumnEachAndPrefixInRankOrder(t *testing.T) {
	// Codes 0..4 rank 3, 0, MaxInt32 (NaN), 1, 2.
	ranks := []int32{3, 0, math.MaxInt32, 1, 2}
	var c Column[count]
	for round := 0; round < 2; round++ { // the second round reuses the column
		c.Reset(len(ranks))
		for _, code := range []uint32{2, 0, 3, 0, 1, 2, 0} { // code 4 unobserved
			*c.At(code) += 1
		}
		if n := c.Rank(ranks); n != 4 {
			t.Fatalf("round %d: %d observed codes, want 4", round, n)
		}
		var codes []uint32
		var own []count
		c.Each(func(code uint32, s count) { codes, own = append(codes, code), append(own, s) })
		if !slices.Equal(codes, []uint32{1, 3, 0, 2}) || !slices.Equal(own, []count{1, 1, 3, 2}) {
			t.Fatalf("round %d: Each visited %v with %v", round, codes, own)
		}
		codes, own = nil, nil
		c.Prefix(ranks, func(code uint32, s count) { codes, own = append(codes, code), append(own, s) })
		if !slices.Equal(codes, []uint32{1, 3, 0}) || !slices.Equal(own, []count{1, 2, 5}) {
			t.Fatalf("round %d: Prefix visited %v with %v; NaN must stay out", round, codes, own)
		}
	}
}

func TestColumnResetGrows(t *testing.T) {
	var c Column[count]
	c.Reset(2)
	*c.At(1) += 4
	c.Reset(5)
	*c.At(4) += 1
	*c.At(1) += 1
	if n := c.Rank([]int32{0, 1, 2, 3, 4}); n != 2 {
		t.Fatalf("%d observed codes, want 2", n)
	}
	var own []count
	c.Each(func(_ uint32, s count) { own = append(own, s) })
	if !slices.Equal(own, []count{1, 1}) {
		t.Fatalf("statistics after Reset = %v, want [1 1]", own)
	}
}
