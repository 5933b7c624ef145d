package pipeline

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestNewInstanceValidation(t *testing.T) {
	s := testSpace(t)
	if _, err := NewInstance(nil, nil); err == nil {
		t.Fatal("nil space must fail")
	}
	if _, err := NewInstance(s, []Value{Ord(1)}); err == nil {
		t.Fatal("arity mismatch must fail")
	}
	if _, err := NewInstance(s, []Value{Ord(1), Ord(2), Ord(10)}); err == nil {
		t.Fatal("kind mismatch must fail")
	}
	in, err := NewInstance(s, []Value{Ord(1), Cat("a"), Ord(10)})
	if err != nil {
		t.Fatal(err)
	}
	if !in.IsValid() || in.Len() != 3 {
		t.Fatalf("instance invalid: %v", in)
	}
	var zero Instance
	if zero.IsValid() {
		t.Fatal("zero instance must be invalid")
	}
}

func TestInstanceIsolatedFromInput(t *testing.T) {
	s := testSpace(t)
	vals := []Value{Ord(1), Cat("a"), Ord(10)}
	in := MustInstance(s, vals...)
	vals[0] = Ord(4)
	if in.Value(0) != Ord(1) {
		t.Fatal("instance must copy its input values")
	}
}

func TestFromAssignments(t *testing.T) {
	s := testSpace(t)
	in, err := FromAssignments(s, []Assignment{
		{Param: "p3", Value: Ord(20)},
		{Param: "p1", Value: Ord(2)},
		{Param: "p2", Value: Cat("b")},
	})
	if err != nil {
		t.Fatal(err)
	}
	if in.Value(0) != Ord(2) || in.Value(1) != Cat("b") || in.Value(2) != Ord(20) {
		t.Fatalf("FromAssignments = %v", in)
	}
	if _, err := FromAssignments(s, []Assignment{{Param: "p1", Value: Ord(1)}}); err == nil {
		t.Fatal("missing parameters must fail")
	}
	if _, err := FromAssignments(s, []Assignment{
		{Param: "p1", Value: Ord(1)}, {Param: "p1", Value: Ord(2)},
		{Param: "p2", Value: Cat("a")}, {Param: "p3", Value: Ord(10)},
	}); err == nil {
		t.Fatal("duplicate assignment must fail")
	}
	if _, err := FromAssignments(s, []Assignment{{Param: "zz", Value: Ord(1)}}); err == nil {
		t.Fatal("unknown parameter must fail")
	}
}

func TestInstanceWith(t *testing.T) {
	s := testSpace(t)
	a := MustInstance(s, Ord(1), Cat("a"), Ord(10))
	b := a.With(0, Ord(3))
	if a.Value(0) != Ord(1) {
		t.Fatal("With must not mutate the receiver")
	}
	if b.Value(0) != Ord(3) || b.Value(1) != Cat("a") {
		t.Fatalf("With result = %v", b)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("With kind mismatch must panic")
		}
	}()
	_ = a.With(0, Cat("boom"))
}

func TestInstanceEqualDisjointDiff(t *testing.T) {
	s := testSpace(t)
	a := MustInstance(s, Ord(1), Cat("a"), Ord(10))
	b := MustInstance(s, Ord(1), Cat("a"), Ord(10))
	c := MustInstance(s, Ord(2), Cat("b"), Ord(20))
	d := MustInstance(s, Ord(2), Cat("a"), Ord(20))
	if !a.Equal(b) || a.Equal(c) {
		t.Fatal("Equal broken")
	}
	if !a.DisjointFrom(c) {
		t.Fatal("a and c differ everywhere; must be disjoint")
	}
	if a.DisjointFrom(d) {
		t.Fatal("a and d share p2; must not be disjoint")
	}
	if got := a.DiffCount(d); got != 2 {
		t.Fatalf("DiffCount = %d, want 2", got)
	}
	other := testSpace(t)
	x := MustInstance(other, Ord(2), Cat("b"), Ord(20))
	if a.Equal(x) || a.DisjointFrom(x) {
		t.Fatal("instances over different spaces are neither equal nor disjoint")
	}
}

// TestDiffCountCrossSpaceLengths pins the cross-space fallback of
// DiffCount to the shared parameter prefix: a space with fewer parameters
// used to drive the value comparison past the shorter code vector and
// panic, in both argument orders.
func TestDiffCountCrossSpaceLengths(t *testing.T) {
	s := testSpace(t)
	a := MustInstance(s, Ord(1), Cat("a"), Ord(10))
	small := MustSpace(
		Parameter{Name: "p1", Kind: Ordinal, Domain: []Value{Ord(1), Ord(2)}},
	)
	b := MustInstance(small, Ord(2))
	if got := a.DiffCount(b); got != 1 {
		t.Fatalf("DiffCount(long, short) = %d, want 1", got)
	}
	if got := b.DiffCount(a); got != 1 {
		t.Fatalf("DiffCount(short, long) = %d, want 1", got)
	}
	same := MustInstance(small, Ord(1))
	if got := a.DiffCount(same); got != 0 {
		t.Fatalf("DiffCount over equal shared prefix = %d, want 0", got)
	}
}

func TestInstanceKeyUnique(t *testing.T) {
	s := testSpace(t)
	seen := make(map[string]Instance)
	s.Enumerate(func(in Instance) bool {
		k := in.Key()
		if prev, dup := seen[k]; dup {
			t.Fatalf("key collision between %v and %v", prev, in)
		}
		seen[k] = in
		return true
	})
	if len(seen) != 24 {
		t.Fatalf("enumerated %d instances, want 24", len(seen))
	}
}

func TestInstanceStringAndAssignments(t *testing.T) {
	s := testSpace(t)
	in := MustInstance(s, Ord(1), Cat("a"), Ord(10))
	if got := in.String(); got != `{p1=1, p2="a", p3=10}` {
		t.Fatalf("String = %q", got)
	}
	as := in.Assignments()
	if len(as) != 3 || as[1].Param != "p2" || as[1].Value != Cat("a") {
		t.Fatalf("Assignments = %v", as)
	}
}

func TestRandomInstanceInDomain(t *testing.T) {
	s := testSpace(t)
	r := rand.New(rand.NewSource(7))
	for i := 0; i < 100; i++ {
		in := s.RandomInstance(r)
		for j := 0; j < in.Len(); j++ {
			if s.DomainIndex(j, in.Value(j)) < 0 {
				t.Fatalf("random instance %v has out-of-domain value at %d", in, j)
			}
		}
	}
}

func TestRandomDisjoint(t *testing.T) {
	s := testSpace(t)
	r := rand.New(rand.NewSource(7))
	ref := MustInstance(s, Ord(1), Cat("a"), Ord(10))
	for i := 0; i < 100; i++ {
		in, ok := s.RandomDisjoint(r, ref)
		if !ok {
			t.Fatal("disjoint instance must exist")
		}
		if !in.DisjointFrom(ref) {
			t.Fatalf("RandomDisjoint produced non-disjoint %v vs %v", in, ref)
		}
	}
	// Single-value domain: no disjoint instance exists.
	tight, err := NewSpace(
		Parameter{Name: "x", Kind: Ordinal, Domain: ordDomain(1)},
		Parameter{Name: "y", Kind: Ordinal, Domain: ordDomain(1, 2)},
	)
	if err != nil {
		t.Fatal(err)
	}
	tref := MustInstance(tight, Ord(1), Ord(1))
	if _, ok := tight.RandomDisjoint(r, tref); ok {
		t.Fatal("no disjoint instance exists for single-value domains")
	}
}

func TestEnumerateEarlyStop(t *testing.T) {
	s := testSpace(t)
	n := 0
	s.Enumerate(func(Instance) bool {
		n++
		return n < 5
	})
	if n != 5 {
		t.Fatalf("early stop visited %d instances", n)
	}
}

// Property: disjointness is symmetric and implies DiffCount == Len.
func TestDisjointnessProperty(t *testing.T) {
	s := testSpace(t)
	r := rand.New(rand.NewSource(42))
	f := func() bool {
		a, b := s.RandomInstance(r), s.RandomInstance(r)
		if a.DisjointFrom(b) != b.DisjointFrom(a) {
			return false
		}
		if a.DisjointFrom(b) && a.DiffCount(b) != a.Len() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestKeyRoundTripDistinctKinds(t *testing.T) {
	// An ordinal 1 and a categorical "1" must never produce colliding keys.
	s, err := NewSpace(Parameter{Name: "x", Kind: Ordinal, Domain: ordDomain(1)})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSpace(Parameter{Name: "x", Kind: Categorical, Domain: catDomain("1")})
	if err != nil {
		t.Fatal(err)
	}
	k1 := MustInstance(s, Ord(1)).Key()
	k2 := MustInstance(s2, Cat("1")).Key()
	if k1 == k2 {
		t.Fatalf("key collision across kinds: %q", k1)
	}
	if strings.Contains(k1, "\x1f") {
		t.Fatal("single-parameter key must not contain separators")
	}
}

// sameInstance fails unless got and want agree on codes, hash, Equal and
// values.
func sameInstance(t *testing.T, what string, got, want Instance) {
	t.Helper()
	if !got.Equal(want) || got.Hash() != want.Hash() || got.Key() != want.Key() {
		t.Fatalf("%s: %v (hash %x), want %v (hash %x)", what, got, got.Hash(), want, want.Hash())
	}
	for i := 0; i < want.Len(); i++ {
		if got.Code(i) != want.Code(i) || got.Value(i) != want.Value(i) {
			t.Fatalf("%s: parameter %d is %v (code %d), want %v (code %d)",
				what, i, got.Value(i), got.Code(i), want.Value(i), want.Code(i))
		}
	}
}

// TestDomainInstanceMatchesNewInstance checks that instances built from
// domain indices equal the NewInstance of the same values, including after
// AddToDomain re-sorts a domain around a value interned earlier (so the
// new value's code is neither its domain index nor the next free code).
func TestDomainInstanceMatchesNewInstance(t *testing.T) {
	s := testSpace(t)
	check := func(stage string) {
		t.Helper()
		s.Enumerate(func(in Instance) bool { // built by DomainInstance
			vals := make([]Value, s.Len())
			for i := range vals {
				vals[i] = in.Value(i)
			}
			want := MustInstance(s, vals...)
			sameInstance(t, stage+": DomainInstance", in, want)
			for i := range vals {
				for j, v := range s.At(i).Domain {
					sameInstance(t, stage+": WithDomain", want.WithDomain(i, j), want.With(i, v))
				}
			}
			return true
		})
	}
	check("fresh space")
	// 2.5 and "b2" get codes 4 and 3 before joining their domains, where
	// they sort to indices 2 and 2.
	MustInstance(s, Ord(2.5), Cat("b2"), Ord(10))
	if err := s.AddToDomain("p1", Ord(2.5)); err != nil {
		t.Fatal(err)
	}
	if err := s.AddToDomain("p2", Cat("b2")); err != nil {
		t.Fatal(err)
	}
	if err := s.AddToDomain("p3", Ord(5)); err != nil { // interned by the add itself
		t.Fatal(err)
	}
	if got := s.DomainCode(0, 2); got != 4 {
		t.Fatalf("p1's domain index 2 (2.5) has code %d, want 4", got)
	}
	check("after AddToDomain")
}

// referenceRandomInstance and referenceRandomDisjoint are the samplers as
// they were before instances were built from domain indices: value slices
// interned through NewInstance.
func referenceRandomInstance(s *Space, r *rand.Rand) Instance {
	vals := make([]Value, s.Len())
	for i := range vals {
		dom := s.At(i).Domain
		vals[i] = dom[r.Intn(len(dom))]
	}
	return MustInstance(s, vals...)
}

func referenceRandomDisjoint(s *Space, r *rand.Rand, ref Instance) (Instance, bool) {
	vals := make([]Value, s.Len())
	for i := range vals {
		dom := s.At(i).Domain
		refIdx := s.DomainIndex(i, ref.Value(i))
		n := len(dom)
		if refIdx >= 0 {
			n--
		}
		if n == 0 {
			return Instance{}, false
		}
		j := r.Intn(n)
		if refIdx >= 0 && j >= refIdx {
			j++
		}
		vals[i] = dom[j]
	}
	return MustInstance(s, vals...), true
}

// TestSamplersMatchReference checks that RandomInstance and RandomDisjoint
// draw the same instances from the same random stream as the reference
// samplers, on a space whose domain codes are not domain indices and with
// a tight space where RandomDisjoint gives up part-way.
func TestSamplersMatchReference(t *testing.T) {
	s := testSpace(t)
	MustInstance(s, Ord(0.5), Cat("a"), Ord(10))
	if err := s.AddToDomain("p1", Ord(0.5)); err != nil {
		t.Fatal(err)
	}
	tight := MustSpace(
		Parameter{Name: "x", Kind: Ordinal, Domain: ordDomain(1, 2)},
		Parameter{Name: "y", Kind: Ordinal, Domain: ordDomain(1)},
	)
	got, want := rand.New(rand.NewSource(9)), rand.New(rand.NewSource(9))
	for k := 0; k < 200; k++ {
		sameInstance(t, "RandomInstance", s.RandomInstance(got), referenceRandomInstance(s, want))
		ref := referenceRandomInstance(s, rand.New(rand.NewSource(int64(k))))
		g, gok := s.RandomDisjoint(got, ref)
		w, wok := referenceRandomDisjoint(s, want, ref)
		if gok != wok {
			t.Fatalf("RandomDisjoint ok = %v, reference %v", gok, wok)
		}
		sameInstance(t, "RandomDisjoint", g, w)
		tref := MustInstance(tight, Ord(1), Ord(1))
		if _, ok := tight.RandomDisjoint(got, tref); ok {
			t.Fatal("tight space has no disjoint instance")
		}
		referenceRandomDisjoint(tight, want, tref)
	}
	if got.Int63() != want.Int63() {
		t.Fatal("the samplers consumed a different number of draws")
	}
}
