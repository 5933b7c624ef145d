package smac

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"repro/internal/exec"
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
		pipeline.Parameter{Name: "x", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3, 4, 5, 6, 7, 8)},
		pipeline.Parameter{Name: "y", Kind: pipeline.Ordinal, Domain: ordDomain(1, 2, 3, 4, 5, 6, 7, 8)},
	)
}

func truthOracle(truth predicate.DNF) exec.Oracle {
	return exec.OracleFunc(func(_ context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
		if truth.Satisfied(in) {
			return pipeline.Fail, nil
		}
		return pipeline.Succeed, nil
	})
}

func TestRunExecutesRequestedInstances(t *testing.T) {
	s := testSpace(t)
	truth := predicate.Or(predicate.And(predicate.T("x", predicate.Le, pipeline.Ord(2))))
	ex := exec.New(truthOracle(truth), provenance.NewStore(s))
	got, err := Run(context.Background(), ex, 30, Options{Rand: rand.New(rand.NewSource(1))})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 30 {
		t.Fatalf("executed %d instances, want 30", len(got))
	}
	if ex.Spent() != 30 {
		t.Fatalf("Spent = %d", ex.Spent())
	}
}

func TestRunConcentratesOnFailures(t *testing.T) {
	// Failure region is x <= 2 (25% of the space). A failure-seeking SMBO
	// should oversample it relative to uniform.
	s := testSpace(t)
	truth := predicate.Or(predicate.And(predicate.T("x", predicate.Le, pipeline.Ord(2))))
	ex := exec.New(truthOracle(truth), provenance.NewStore(s))
	_, err := Run(context.Background(), ex, 60, Options{Rand: rand.New(rand.NewSource(3))})
	if err != nil {
		t.Fatal(err)
	}
	_, fails := ex.Store().Outcomes()
	frac := float64(fails) / float64(ex.Store().Len())
	if frac <= 0.25 {
		t.Fatalf("failing fraction = %.2f, want > 0.25 (uniform rate)", frac)
	}
}

func TestRunStopsOnBudget(t *testing.T) {
	s := testSpace(t)
	truth := predicate.Or(predicate.And(predicate.T("x", predicate.Le, pipeline.Ord(2))))
	ex := exec.New(truthOracle(truth), provenance.NewStore(s), exec.WithBudget(5))
	got, err := Run(context.Background(), ex, 100, Options{Rand: rand.New(rand.NewSource(5))})
	if err != nil {
		t.Fatalf("budget exhaustion must not error: %v", err)
	}
	if len(got) != 5 {
		t.Fatalf("executed %d, want 5 (budget)", len(got))
	}
}

func TestRunCancelled(t *testing.T) {
	s := testSpace(t)
	truth := predicate.Or(predicate.And(predicate.T("x", predicate.Le, pipeline.Ord(2))))
	ex := exec.New(truthOracle(truth), provenance.NewStore(s))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Run(ctx, ex, 10, Options{}); err == nil {
		t.Fatal("cancelled context must propagate")
	}
}

// runWithin runs Run with no context deadline and fails the test if it has
// not returned within a minute.
func runWithin(t *testing.T, ex *exec.Executor, maxNew int) []pipeline.Instance {
	t.Helper()
	type result struct {
		got []pipeline.Instance
		err error
	}
	done := make(chan result, 1)
	go func() {
		got, err := Run(context.Background(), ex, maxNew, Options{Rand: rand.New(rand.NewSource(11))})
		done <- result{got, err}
	}()
	select {
	case r := <-done:
		if r.err != nil {
			t.Fatalf("replay misses must end the run gracefully: %v", r.err)
		}
		return r.got
	case <-time.After(time.Minute):
		t.Fatal("Run did not return on a replay-only oracle")
		return nil
	}
}

func TestRunEndsOnReplayMisses(t *testing.T) {
	s := testSpace(t)
	empty, err := exec.NewHistoricalOracle(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := runWithin(t, exec.New(empty, provenance.NewStore(s)), 30); len(got) != 0 {
		t.Fatalf("executed %d instances over an empty history", len(got))
	}

	// A sparse history: Run executes only recorded instances and still
	// returns once the misses pile up.
	r := rand.New(rand.NewSource(4))
	var ins []pipeline.Instance
	var outs []pipeline.Outcome
	for i := 0; i < 6; i++ {
		ins = append(ins, s.RandomInstance(r))
		outs = append(outs, pipeline.Fail)
	}
	hist, err := exec.NewHistoricalOracle(ins, outs)
	if err != nil {
		t.Fatal(err)
	}
	for _, in := range runWithin(t, exec.New(hist, provenance.NewStore(s)), 30) {
		if _, ok := hist.Run(context.Background(), in); ok != nil {
			t.Fatalf("executed %v, which the history does not hold", in)
		}
	}
}

func TestRandomSearch(t *testing.T) {
	s := testSpace(t)
	truth := predicate.Or(predicate.And(predicate.T("x", predicate.Le, pipeline.Ord(2))))
	ex := exec.New(truthOracle(truth), provenance.NewStore(s))
	got, err := RandomSearch(context.Background(), ex, 20, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 20 {
		t.Fatalf("executed %d, want 20", len(got))
	}
	// No duplicates: every executed instance was previously untested.
	seen := map[string]bool{}
	for _, in := range got {
		if seen[in.Key()] {
			t.Fatalf("duplicate instance %v", in)
		}
		seen[in.Key()] = true
	}
}

func TestExpectedImprovement(t *testing.T) {
	// Zero variance: EI is the positive part of the mean improvement.
	if got := expectedImprovement(0.8, 0, 0.5); got < 0.3-1e-9 || got > 0.3+1e-9 {
		t.Fatalf("EI = %v", got)
	}
	if got := expectedImprovement(0.2, 0, 0.5); got != 0 {
		t.Fatalf("EI = %v", got)
	}
	// Positive variance adds exploration value even below the incumbent.
	if got := expectedImprovement(0.5, 0.5, 0.5); got <= 0 {
		t.Fatalf("EI with uncertainty = %v, want > 0", got)
	}
	// EI grows with the mean.
	if expectedImprovement(0.9, 0.2, 0.5) <= expectedImprovement(0.1, 0.2, 0.5) {
		t.Fatal("EI must increase with the predicted mean")
	}
}

func TestMutateChangesExactlyOneParameter(t *testing.T) {
	s := testSpace(t)
	r := rand.New(rand.NewSource(9))
	in := pipeline.MustInstance(s, pipeline.Ord(4), pipeline.Ord(4))
	for i := 0; i < 50; i++ {
		m := mutate(s, in, r)
		if d := in.DiffCount(m); d != 1 {
			t.Fatalf("mutate changed %d parameters", d)
		}
	}
}
