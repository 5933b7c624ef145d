package pipeline

import (
	"fmt"
	"math"
	"math/rand"
	"sync"
	"testing"
)

// checkRanks verifies r is a rank table of parameter i: NaN ranks
// MaxInt32, and the other codes carry the ranks 0..k-1 in value order.
func checkRanks(s *Space, i int, r []int32) error {
	byRank := make([]Value, len(r))
	finite := 0
	for c := range r {
		v := s.InternedValue(i, uint32(c))
		if v.Kind() == Ordinal && math.IsNaN(v.Num()) {
			if r[c] != math.MaxInt32 {
				return fmt.Errorf("NaN code %d ranks %d, want MaxInt32", c, r[c])
			}
			continue
		}
		if r[c] < 0 || int(r[c]) >= len(r) || byRank[r[c]].Kind() != KindInvalid {
			return fmt.Errorf("code %d has a duplicate or out-of-range rank %d", c, r[c])
		}
		byRank[r[c]] = v
		finite++
	}
	for k := 1; k < finite; k++ {
		if byRank[k].Kind() == KindInvalid || !byRank[k-1].Less(byRank[k]) {
			return fmt.Errorf("ranks %d, %d disagree with value order (%v, %v)", k-1, k, byRank[k-1], byRank[k])
		}
	}
	return nil
}

func TestCodeRanksFollowValueOrder(t *testing.T) {
	s := testSpace(t)
	for i := 0; i < s.Len(); i++ {
		r := s.CodeRanks(i)
		if len(r) != s.NumCodes(i) {
			t.Fatalf("param %d: table covers %d of %d codes", i, len(r), s.NumCodes(i))
		}
		if err := checkRanks(s, i, r); err != nil {
			t.Fatalf("param %d: %v", i, err)
		}
		if again := s.CodeRanks(i); &again[0] != &r[0] {
			t.Fatalf("param %d: rank table rebuilt with no new code", i)
		}
	}
}

// refreshed asserts that parameter i's rank table was replaced after a new
// code, covers it, and left the earlier table intact.
func refreshed(t *testing.T, s *Space, i int, before []int32, snapshot []int32) {
	t.Helper()
	after := s.CodeRanks(i)
	if len(after) != s.NumCodes(i) || len(after) <= len(before) {
		t.Fatalf("table covers %d codes after interning, %d before, %d assigned", len(after), len(before), s.NumCodes(i))
	}
	if err := checkRanks(s, i, after); err != nil {
		t.Fatal(err)
	}
	for c := range before {
		if before[c] != snapshot[c] {
			t.Fatal("an earlier rank table changed")
		}
	}
}

func TestCodeRanksRefreshAfterAddToDomain(t *testing.T) {
	s := testSpace(t)
	before := s.CodeRanks(0)
	snapshot := append([]int32(nil), before...)
	if err := s.AddToDomain("p1", Ord(2.5)); err != nil {
		t.Fatal(err)
	}
	refreshed(t, s, 0, before, snapshot)
	// 2.5 sits between 2 and 3 in value order.
	r := s.CodeRanks(0)
	if got := r[s.Intern(0, Ord(2.5))]; got != 2 {
		t.Fatalf("rank of 2.5 = %d, want 2", got)
	}

	catBefore := s.CodeRanks(1)
	catSnapshot := append([]int32(nil), catBefore...)
	if err := s.AddToDomain("p2", Cat("aa")); err != nil {
		t.Fatal(err)
	}
	refreshed(t, s, 1, catBefore, catSnapshot)
}

func TestCodeRanksRefreshAfterOutOfDomainInstance(t *testing.T) {
	s := testSpace(t)
	before := s.CodeRanks(2)
	snapshot := append([]int32(nil), before...)
	if _, err := NewInstance(s, []Value{Ord(1), Cat("a"), Ord(-5)}); err != nil {
		t.Fatal(err)
	}
	refreshed(t, s, 2, before, snapshot)
	if got := s.CodeRanks(2)[s.Intern(2, Ord(-5))]; got != 0 {
		t.Fatalf("rank of -5 = %d, want 0", got)
	}
	// The other parameters interned nothing new; their tables stay cached.
	r := s.CodeRanks(0)
	if _, err := NewInstance(s, []Value{Ord(1), Cat("a"), Ord(-5)}); err != nil {
		t.Fatal(err)
	}
	if again := s.CodeRanks(0); &again[0] != &r[0] {
		t.Fatal("rank table rebuilt with no new code")
	}
}

func TestCodeRanksNaNRanksLast(t *testing.T) {
	s := testSpace(t)
	before := s.CodeRanks(0)
	snapshot := append([]int32(nil), before...)
	if _, err := NewInstance(s, []Value{Ord(math.NaN()), Cat("a"), Ord(10)}); err != nil {
		t.Fatal(err)
	}
	refreshed(t, s, 0, before, snapshot)
	r := s.CodeRanks(0)
	if got := r[s.Intern(0, Ord(math.NaN()))]; got != math.MaxInt32 {
		t.Fatalf("NaN ranks %d, want MaxInt32", got)
	}
	// A larger value interned after NaN still ranks among the finite ones.
	if _, err := NewInstance(s, []Value{Ord(99), Cat("a"), Ord(10)}); err != nil {
		t.Fatal(err)
	}
	r = s.CodeRanks(0)
	if err := checkRanks(s, 0, r); err != nil {
		t.Fatal(err)
	}
	if got := r[s.Intern(0, Ord(99))]; got != 4 {
		t.Fatalf("rank of 99 = %d, want 4", got)
	}
}

// TestCodeRanksConcurrentIntern reads rank tables while other goroutines
// intern new values of the same parameters (run it under -race): every
// table a reader gets must be a complete, consistent ranking of the codes
// it covers.
func TestCodeRanksConcurrentIntern(t *testing.T) {
	s := MustSpace(
		Parameter{Name: "a", Kind: Ordinal, Domain: []Value{Ord(1), Ord(2), Ord(3)}},
		Parameter{Name: "b", Kind: Categorical, Domain: []Value{Cat("x"), Cat("y")}},
	)
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(2)
		go func(seed int64) {
			defer wg.Done()
			r := rand.New(rand.NewSource(seed))
			for k := 0; k < 200; k++ {
				MustInstance(s, Ord(float64(r.Intn(1000))/7), Cat(fmt.Sprint("c", r.Intn(1000))))
			}
		}(int64(w))
		go func() {
			defer wg.Done()
			for k := 0; k < 200; k++ {
				i := k % 2
				r := s.CodeRanks(i)
				if len(r) < len(s.At(i).Domain) {
					t.Errorf("table covers %d codes, fewer than the domain", len(r))
					return
				}
				if k%20 == 0 {
					if err := checkRanks(s, i, r); err != nil {
						t.Error(err)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	for i := 0; i < s.Len(); i++ {
		if r := s.CodeRanks(i); len(r) != s.NumCodes(i) {
			t.Fatalf("final table covers %d of %d codes", len(r), s.NumCodes(i))
		}
	}
}
