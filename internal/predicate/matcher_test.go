package predicate

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pipeline"
)

// matcherValue draws a triple or instance value for parameter p: mostly
// domain values, sometimes values outside the domain (NaN and -0 among
// the ordinals).
func matcherValue(r *rand.Rand, p pipeline.Parameter) pipeline.Value {
	if r.Intn(3) > 0 {
		return p.Domain[r.Intn(len(p.Domain))]
	}
	if p.Kind == pipeline.Categorical {
		return pipeline.Cat([]string{"", "z", "b ", "c"}[r.Intn(4)])
	}
	return pipeline.Ord([]float64{math.NaN(), math.Copysign(0, -1), 0, 2.5, 15, 99}[r.Intn(6)])
}

// randomConjunction draws up to four triples over s, ordering comparators
// on ordinals only, sometimes naming a parameter s lacks.
func randomConjunction(r *rand.Rand, s *pipeline.Space) Conjunction {
	c := make(Conjunction, r.Intn(5))
	for k := range c {
		p := s.At(r.Intn(s.Len()))
		cmps := []Comparator{Eq, Neq}
		if p.Kind == pipeline.Ordinal {
			cmps = append(cmps, Le, Gt)
		}
		name := p.Name
		if r.Intn(10) == 0 {
			name = "missing"
		}
		c[k] = T(name, cmps[r.Intn(len(cmps))], matcherValue(r, p))
	}
	return c
}

// randomMatcherInstance draws an instance of s whose values may lie
// outside the domains; building it interns them.
func randomMatcherInstance(t *testing.T, r *rand.Rand, s *pipeline.Space) pipeline.Instance {
	t.Helper()
	vals := make([]pipeline.Value, s.Len())
	for i := range vals {
		vals[i] = matcherValue(r, s.At(i))
	}
	in, err := pipeline.NewInstance(s, vals)
	if err != nil {
		t.Fatal(err)
	}
	return in
}

// TestMatcherAgreesWithSatisfied is the differential test of the compiled
// matcher against Conjunction.Satisfied: random conjunctions over every
// domain instance, over instances whose out-of-domain values were
// interned before and after Compile, and over instances of two foreign
// spaces (one with the same parameters, one without most of them).
func TestMatcherAgreesWithSatisfied(t *testing.T) {
	r := rand.New(rand.NewSource(3))
	foreign := []*pipeline.Space{
		testSpace(t),
		pipeline.MustSpace(pipeline.Parameter{Name: "p2", Kind: pipeline.Categorical, Domain: catDomain("a", "z")}),
	}
	for round := 0; round < 300; round++ {
		s := testSpace(t) // fresh, so every round interns its own late values
		var ins []pipeline.Instance
		s.Enumerate(func(in pipeline.Instance) bool {
			ins = append(ins, in)
			return true
		})
		for k := 0; k < 5; k++ {
			ins = append(ins, randomMatcherInstance(t, r, s))
		}
		c := randomConjunction(r, s)
		m := c.Compile(s)
		for k := 0; k < 10; k++ {
			ins = append(ins, randomMatcherInstance(t, r, s))
		}
		for _, fs := range foreign {
			for k := 0; k < 5; k++ {
				ins = append(ins, randomMatcherInstance(t, r, fs))
			}
		}
		for _, in := range ins {
			if got, want := m.Match(in), c.Satisfied(in); got != want {
				t.Fatalf("round %d: %v compiled on %v: Match(%v) = %v, Satisfied = %v",
					round, c, s, in, got, want)
			}
		}
	}
}

// TestMatchAllocatesNothing holds Match to the //bugdoc:hotpath contract,
// on the table path and on the Holds fallback for a late code.
func TestMatchAllocatesNothing(t *testing.T) {
	s := testSpace(t)
	m := And(T("p1", Le, pipeline.Ord(3)), T("p2", Neq, pipeline.Cat("b"))).Compile(s)
	domain := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Cat("a"), pipeline.Ord(10))
	late := pipeline.MustInstance(s, pipeline.Ord(2.5), pipeline.Cat("z"), pipeline.Ord(10))
	for _, in := range []pipeline.Instance{domain, late} {
		if !m.Match(in) {
			t.Fatalf("Match(%v) = false", in)
		}
		if allocs := testing.AllocsPerRun(100, func() { m.Match(in) }); allocs != 0 {
			t.Fatalf("Match(%v) allocates %v times per call", in, allocs)
		}
	}
}

// TestCompileInvalidTriples checks that triples Holds panics on do not make
// Compile panic: Match, like Satisfied, only panics on reaching them.
func TestCompileInvalidTriples(t *testing.T) {
	s := testSpace(t)
	in := pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Cat("a"), pipeline.Ord(10))
	for _, bad := range []Triple{T("p2", Le, pipeline.Cat("a")), T("p1", Comparator(0), pipeline.Ord(1))} {
		c := And(T("p1", Gt, pipeline.Ord(3)), bad)
		if m := c.Compile(s); m.Match(in) || c.Satisfied(in) {
			t.Fatalf("%v matched %v", c, in)
		}
	}
}
