package forest

import (
	"math"
	"math/rand"
	"testing"

	"repro/internal/pipeline"
)

func ordDomain(vals ...float64) []pipeline.Value {
	out := make([]pipeline.Value, len(vals))
	for i, v := range vals {
		out[i] = pipeline.Ord(v)
	}
	return out
}

func catDomain(vals ...string) []pipeline.Value {
	out := make([]pipeline.Value, len(vals))
	for i, v := range vals {
		out[i] = pipeline.Cat(v)
	}
	return out
}

func testSpace(t *testing.T) *pipeline.Space {
	t.Helper()
	return pipeline.MustSpace(
		pipeline.Parameter{Name: "x", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3, 4, 5, 6)},
		pipeline.Parameter{Name: "c", Kind: pipeline.Categorical, Domain: catDomain("a", "b", "c")},
	)
}

func dataset(s *pipeline.Space, f func(pipeline.Instance) float64) (xs []pipeline.Instance, ys []float64) {
	s.Enumerate(func(in pipeline.Instance) bool {
		xs = append(xs, in)
		ys = append(ys, f(in))
		return true
	})
	return
}

func TestTrainEmpty(t *testing.T) {
	s := testSpace(t)
	f := Train(s, nil, nil, Config{})
	if f.Len() != 0 {
		t.Fatalf("empty forest has %d trees", f.Len())
	}
	mu, v := f.Predict(pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Cat("a")))
	if mu != 0 || v != 0 {
		t.Fatalf("empty forest Predict = %v, %v", mu, v)
	}
}

func TestForestLearnsThreshold(t *testing.T) {
	s := testSpace(t)
	xs, ys := dataset(s, func(in pipeline.Instance) float64 {
		if v, _ := in.ByName("x"); v.Num() <= 3 {
			return 1
		}
		return 0
	})
	f := Train(s, xs, ys, Config{Trees: 24, Rand: rand.New(rand.NewSource(1))})
	if f.Len() != 24 {
		t.Fatalf("Len = %d", f.Len())
	}
	low, _ := f.Predict(pipeline.MustInstance(s, pipeline.Ord(2), pipeline.Cat("b")))
	high, _ := f.Predict(pipeline.MustInstance(s, pipeline.Ord(5), pipeline.Cat("b")))
	if low < 0.7 || high > 0.3 {
		t.Fatalf("Predict(x=2) = %v, Predict(x=5) = %v; want near 1 and 0", low, high)
	}
}

func TestForestLearnsCategorical(t *testing.T) {
	s := testSpace(t)
	xs, ys := dataset(s, func(in pipeline.Instance) float64 {
		if v, _ := in.ByName("c"); v.Str() == "b" {
			return 1
		}
		return 0
	})
	f := Train(s, xs, ys, Config{Trees: 24, Rand: rand.New(rand.NewSource(2))})
	hit, _ := f.Predict(pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Cat("b")))
	miss, _ := f.Predict(pipeline.MustInstance(s, pipeline.Ord(3), pipeline.Cat("a")))
	if hit < 0.7 || miss > 0.3 {
		t.Fatalf("Predict(c=b) = %v, Predict(c=a) = %v", hit, miss)
	}
}

func TestForestVarianceSmallOnConstantTarget(t *testing.T) {
	s := testSpace(t)
	xs, ys := dataset(s, func(pipeline.Instance) float64 { return 0.5 })
	f := Train(s, xs, ys, Config{Trees: 8, Rand: rand.New(rand.NewSource(3))})
	mu, v := f.Predict(pipeline.MustInstance(s, pipeline.Ord(1), pipeline.Cat("a")))
	if mu != 0.5 || v != 0 {
		t.Fatalf("constant target: Predict = %v, %v", mu, v)
	}
}

func TestForestDeterministicPerSeed(t *testing.T) {
	s := testSpace(t)
	xs, ys := dataset(s, func(in pipeline.Instance) float64 {
		v, _ := in.ByName("x")
		return v.Num() / 6
	})
	in := pipeline.MustInstance(s, pipeline.Ord(4), pipeline.Cat("c"))
	f1 := Train(s, xs, ys, Config{Trees: 8, Rand: rand.New(rand.NewSource(7))})
	f2 := Train(s, xs, ys, Config{Trees: 8, Rand: rand.New(rand.NewSource(7))})
	m1, v1 := f1.Predict(in)
	m2, v2 := f2.Predict(in)
	if m1 != m2 || v1 != v2 {
		t.Fatalf("forest not deterministic: (%v,%v) vs (%v,%v)", m1, v1, m2, v2)
	}
}

func TestPredictAllocatesNothing(t *testing.T) {
	s := testSpace(t)
	xs, ys := dataset(s, func(in pipeline.Instance) float64 {
		v, _ := in.ByName("x")
		return v.Num() / 6
	})
	f := Train(s, xs, ys, Config{Rand: rand.New(rand.NewSource(5))})
	in := pipeline.MustInstance(s, pipeline.Ord(4), pipeline.Cat("c"))
	if allocs := testing.AllocsPerRun(100, func() { f.Predict(in) }); allocs != 0 {
		t.Fatalf("Predict allocates %v times per call", allocs)
	}
}

// valuePredict walks f's trees with the value form of every split — the
// test the rank form must agree with — and averages the leaves in tree
// order, as Predict does.
func valuePredict(f *Forest, in pipeline.Instance) float64 {
	mu := 0.0
	for _, n := range f.trees {
		for n.yes != nil {
			v := in.Value(n.param)
			var yes bool
			if n.ordinal {
				yes = v.Num() <= n.threshold
			} else {
				yes = v == f.space.InternedValue(n.param, n.code)
			}
			if yes {
				n = n.yes
			} else {
				n = n.no
			}
		}
		mu += n.mean
	}
	return mu / float64(len(f.trees))
}

// TestPredictCodesInternedAfterTrain predicts instances whose values were
// interned after Train — out of the rank tables the trees were grown
// against — and requires the same routing as the value tests.
func TestPredictCodesInternedAfterTrain(t *testing.T) {
	s := testSpace(t)
	xs, ys := dataset(s, func(in pipeline.Instance) float64 {
		x, _ := in.ByName("x")
		c, _ := in.ByName("c")
		if x.Num() <= 3 || c.Str() == "b" {
			return 1
		}
		return 0
	})
	f := Train(s, xs, ys, Config{Rand: rand.New(rand.NewSource(8))})
	trained := s.NumCodes(0)
	for _, x := range []float64{0.5, 2.5, 3.5, 7, math.NaN(), -1} {
		for _, c := range []string{"a", "b", "zz"} {
			in := pipeline.MustInstance(s, pipeline.Ord(x), pipeline.Cat(c))
			mu, _ := f.Predict(in)
			if want := valuePredict(f, in); mu != want {
				t.Fatalf("Predict(x=%v, c=%q) = %v, value tests give %v", x, c, mu, want)
			}
		}
	}
	if s.NumCodes(0) == trained {
		t.Fatal("no ordinal value was interned after Train")
	}
}
