package exptables

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/provenance"
)

func ordDomain(vals ...float64) []pipeline.Value {
	out := make([]pipeline.Value, len(vals))
	for i, v := range vals {
		out[i] = pipeline.Ord(v)
	}
	return out
}

func testSpace(t *testing.T) *pipeline.Space {
	t.Helper()
	return pipeline.MustSpace(
		pipeline.Parameter{Name: "a", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3, 4)},
		pipeline.Parameter{Name: "b", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3, 4)},
	)
}

func fillStore(t *testing.T, s *pipeline.Space, truth predicate.DNF) *provenance.Store {
	t.Helper()
	st := provenance.NewStore(s)
	s.Enumerate(func(in pipeline.Instance) bool {
		out := pipeline.Succeed
		if truth.Satisfied(in) {
			out = pipeline.Fail
		}
		if err := st.Add(in, out, "full"); err != nil {
			t.Fatal(err)
		}
		return true
	})
	return st
}

func TestExplainFindsPurePattern(t *testing.T) {
	s := testSpace(t)
	truth := predicate.Or(predicate.And(predicate.T("a", predicate.Eq, pipeline.Ord(1))))
	st := fillStore(t, s, truth)
	table := Explain(s, st, Options{Rand: rand.New(rand.NewSource(1))})
	if len(table) == 0 {
		t.Fatal("empty explanation table")
	}
	causes := AsCauses(table)
	if len(causes) == 0 {
		t.Fatalf("no pure pattern found in table %v", table)
	}
	eq, err := predicate.Equivalent(s, causes[0], truth[0])
	if err != nil || !eq {
		t.Fatalf("top cause = %v, want %v (err %v)", causes[0], truth[0], err)
	}
}

func TestExplainHighPrecision(t *testing.T) {
	// Patterns asserted as causes must have a perfect fail rate on the
	// provenance — the high-precision behaviour the paper reports.
	s := testSpace(t)
	truth := predicate.Or(
		predicate.And(predicate.T("a", predicate.Eq, pipeline.Ord(2)),
			predicate.T("b", predicate.Eq, pipeline.Ord(2))),
	)
	st := fillStore(t, s, truth)
	table := Explain(s, st, Options{Rand: rand.New(rand.NewSource(2))})
	for _, c := range AsCauses(table) {
		succ, fail := st.CountSatisfying(c)
		if succ != 0 || fail == 0 {
			t.Fatalf("asserted pattern %v covers %d successes, %d failures", c, succ, fail)
		}
	}
}

func TestExplainEmptyStore(t *testing.T) {
	s := testSpace(t)
	if table := Explain(s, provenance.NewStore(s), Options{}); table != nil {
		t.Fatalf("empty store must give nil table, got %v", table)
	}
}

func TestExplainAllSucceedGivesNoCauses(t *testing.T) {
	s := testSpace(t)
	st := fillStore(t, s, predicate.DNF{}) // nothing fails
	table := Explain(s, st, Options{Rand: rand.New(rand.NewSource(3))})
	if causes := AsCauses(table); len(causes) != 0 {
		t.Fatalf("no failures but causes asserted: %v", causes)
	}
}

func TestExplainRespectsMaxPatterns(t *testing.T) {
	s := testSpace(t)
	truth := predicate.Or(
		predicate.And(predicate.T("a", predicate.Eq, pipeline.Ord(1))),
		predicate.And(predicate.T("a", predicate.Eq, pipeline.Ord(2))),
		predicate.And(predicate.T("b", predicate.Eq, pipeline.Ord(3))),
	)
	st := fillStore(t, s, truth)
	table := Explain(s, st, Options{Rand: rand.New(rand.NewSource(4)), MaxPatterns: 2})
	if len(table) > 2 {
		t.Fatalf("table size %d exceeds MaxPatterns", len(table))
	}
}

func TestExplainDeterministicPerSeed(t *testing.T) {
	s := testSpace(t)
	truth := predicate.Or(predicate.And(predicate.T("b", predicate.Eq, pipeline.Ord(4))))
	st := fillStore(t, s, truth)
	render := func() string {
		out := ""
		for _, p := range Explain(s, st, Options{Rand: rand.New(rand.NewSource(5))}) {
			out += p.Conj.String() + ";"
		}
		return out
	}
	if render() != render() {
		t.Fatal("Explain must be deterministic per seed")
	}
}

func TestKLBernoulliProperties(t *testing.T) {
	if klBernoulli(0.5, 0.5) > 1e-9 {
		t.Fatal("KL(p||p) must be ~0")
	}
	if klBernoulli(1, 0.1) <= klBernoulli(1, 0.9) {
		t.Fatal("KL must penalize worse estimates more")
	}
	// Clamping keeps extreme values finite.
	if k := klBernoulli(1, 0); k <= 0 || k != k {
		t.Fatalf("clamped KL = %v", k)
	}
}

// referenceCandidates is candidate generation as it was before patterns
// were keyed by value codes: every pattern is built, canonicalised and
// deduplicated by its rendering.
func referenceCandidates(s *pipeline.Space, rows []pipeline.Instance, failIdx []int, opts Options) []predicate.Conjunction {
	if len(failIdx) == 0 {
		return nil
	}
	r := opts.Rand
	seen := make(map[string]bool)
	var out []predicate.Conjunction
	add := func(c predicate.Conjunction) {
		c = c.Canonical()
		if len(c) == 0 {
			return
		}
		if k := c.String(); !seen[k] {
			seen[k] = true
			out = append(out, c)
		}
	}
	lca := func(a, b pipeline.Instance) predicate.Conjunction {
		var c predicate.Conjunction
		for i := 0; i < s.Len(); i++ {
			if a.Value(i) == b.Value(i) {
				c = append(c, predicate.T(s.At(i).Name, predicate.Eq, a.Value(i)))
			}
		}
		return c
	}
	sample := func() pipeline.Instance {
		return rows[failIdx[r.Intn(len(failIdx))]]
	}
	for i := 0; i < opts.SampleSize; i++ {
		a, b := sample(), sample()
		add(lca(a, b))
		add(lca(a, sample()))
		for pi := 0; pi < s.Len(); pi++ {
			add(predicate.Conjunction{predicate.T(s.At(pi).Name, predicate.Eq, a.Value(pi))})
		}
	}
	return out
}

// TestCandidatesMatchReference checks that code-keyed deduplication keeps
// the reference's patterns in the reference's first-seen order, over rows
// with out-of-domain values and NaN (which never agrees with itself).
func TestCandidatesMatchReference(t *testing.T) {
	s := pipeline.MustSpace(
		pipeline.Parameter{Name: "z", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3)},
		pipeline.Parameter{Name: "c", Kind: pipeline.Categorical,
			Domain: []pipeline.Value{pipeline.Cat("x"), pipeline.Cat("y")}},
		pipeline.Parameter{Name: "a", Kind: pipeline.Ordinal, Domain: ordDomain(5, 6)},
	)
	r := rand.New(rand.NewSource(4))
	ords := []pipeline.Value{pipeline.Ord(1), pipeline.Ord(2), pipeline.Ord(7), pipeline.Ord(math.NaN())}
	var rows []pipeline.Instance
	var failIdx []int
	for i := 0; i < 40; i++ {
		rows = append(rows, pipeline.MustInstance(s, ords[r.Intn(len(ords))],
			[]pipeline.Value{pipeline.Cat("x"), pipeline.Cat("y"), pipeline.Cat("w")}[r.Intn(3)],
			ords[r.Intn(len(ords))]))
		if r.Intn(2) == 0 {
			failIdx = append(failIdx, i)
		}
	}
	for seed := int64(0); seed < 20; seed++ {
		opts := Options{Rand: rand.New(rand.NewSource(seed))}.withDefaults()
		ref := Options{Rand: rand.New(rand.NewSource(seed))}.withDefaults()
		got, want := candidates(s, rows, failIdx, opts), referenceCandidates(s, rows, failIdx, ref)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d candidates, reference %d", seed, len(got), len(want))
		}
		for i := range got {
			if got[i].String() != want[i].String() { // NaN triples are never ==
				t.Fatalf("seed %d: candidate %d is %v, reference %v", seed, i, got[i], want[i])
			}
		}
	}
}
