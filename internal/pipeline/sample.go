package pipeline

import (
	"fmt"
	"math/rand"
)

// RandomInstance draws an instance uniformly from the Cartesian product of
// the parameter domains.
func (s *Space) RandomInstance(r *rand.Rand) Instance {
	in, _ := s.fromDomain(func(i int) int { return r.Intn(len(s.params[i].Domain)) })
	return in
}

// RandomDisjoint draws an instance uniformly among those disjoint from ref
// (different value on every parameter, Definition 6). It returns ok=false
// when some parameter has a single-value domain, in which case no disjoint
// instance exists.
func (s *Space) RandomDisjoint(r *rand.Rand, ref Instance) (Instance, bool) {
	return s.fromDomain(func(i int) int {
		refIdx := s.DomainIndex(i, ref.Value(i))
		n := len(s.params[i].Domain)
		if refIdx >= 0 {
			n--
		}
		if n == 0 {
			return -1
		}
		j := r.Intn(n)
		if refIdx >= 0 && j >= refIdx {
			j++
		}
		return j
	})
}

// DomainInstance builds the instance whose i-th value is the idx[i]-th
// domain value of parameter i. Codes come from the domain-code table, so
// unlike NewInstance it interns nothing; the result equals the NewInstance
// of the same values (codes, hash and Equal). It panics unless idx holds
// one in-range domain index per parameter.
func (s *Space) DomainInstance(idx []int) Instance {
	if len(idx) != len(s.params) {
		panic(fmt.Sprintf("pipeline: %d domain indices for %d parameters", len(idx), len(s.params)))
	}
	in, ok := s.fromDomain(func(i int) int { return idx[i] })
	if !ok {
		panic("pipeline: negative domain index")
	}
	return in
}

// fromDomain builds the instance whose i-th value is domain value pick(i)
// of parameter i, calling pick once per parameter in space order. A
// negative pick abandons the instance and reports ok=false.
func (s *Space) fromDomain(pick func(i int) int) (Instance, bool) {
	vals := make([]Value, len(s.params))
	codes := make([]uint32, len(s.params))
	for i := range s.params {
		j := pick(i)
		if j < 0 {
			return Instance{}, false
		}
		vals[i], codes[i] = s.params[i].Domain[j], s.domCodes[i][j]
	}
	return Instance{space: s, vals: vals, codes: codes, hash: hashCodes(codes)}, true
}

// Enumerate calls yield for every instance in the Cartesian product, in
// lexicographic domain order, stopping early if yield returns false.
// It is intended for small spaces; callers should consult NumInstances.
func (s *Space) Enumerate(yield func(Instance) bool) {
	idx := make([]int, s.Len())
	for {
		if !yield(s.DomainInstance(idx)) {
			return
		}
		// Advance the mixed-radix counter.
		i := s.Len() - 1
		for ; i >= 0; i-- {
			idx[i]++
			if idx[i] < len(s.params[i].Domain) {
				break
			}
			idx[i] = 0
		}
		if i < 0 {
			return
		}
	}
}
