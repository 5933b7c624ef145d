// Package smac implements the SMAC baseline of Section 5: Sequential
// Model-Based Algorithm Configuration (Hutter, Hoos, Leyton-Brown; LION
// 2011) with a random-forest surrogate and expected-improvement
// acquisition. As in the paper's setup, the optimization goal is flipped to
// *seek failing pipeline instances* ("since SMAC looks for good instances
// ... we change its goal to look for bad pipeline instances"); the
// instances it executes are then handed to the explanation baselines
// (Data X-Ray, Explanation Tables).
//
// The package also provides plain random search, which the paper evaluated
// and found uniformly worse.
package smac

import (
	"context"
	"errors"
	"math"
	"math/rand"

	"repro/internal/exec"
	"repro/internal/forest"
	"repro/internal/pipeline"
)

// Options tunes the SMBO loop; zero values take defaults.
type Options struct {
	// Rand drives all sampling; deterministic default.
	Rand *rand.Rand
	// InitialDesign is the number of random configurations evaluated
	// before the first model fit (default 8).
	InitialDesign int
	// Candidates is the number of random candidates scored per iteration
	// (default 64).
	Candidates int
	// Neighbours is the number of one-parameter mutations of the incumbent
	// scored per iteration (default 16, SMAC's local search).
	Neighbours int
	// Forest configures the surrogate model.
	Forest forest.Config
}

func (o Options) withDefaults() Options {
	if o.Rand == nil {
		o.Rand = rand.New(rand.NewSource(1))
	}
	if o.InitialDesign <= 0 {
		o.InitialDesign = 8
	}
	if o.Candidates <= 0 {
		o.Candidates = 64
	}
	if o.Neighbours <= 0 {
		o.Neighbours = 16
	}
	return o
}

// Run executes up to maxNew new pipeline instances chosen by SMBO and
// returns every instance it executed (its provenance contribution). The
// surrogate regresses failure (fail = 1, succeed = 0) and candidates are
// ranked by expected improvement over the incumbent failure score, so the
// search concentrates instances around failing regions. Budget exhaustion
// ends the run gracefully, and so do replay misses: untestable candidates
// (exec.ErrUnknownInstance) are skipped, and after maxNew*20 consecutive
// misses the run returns what it executed.
func Run(ctx context.Context, ex *exec.Executor, maxNew int, opts Options) ([]pipeline.Instance, error) {
	opts = opts.withDefaults()
	s := ex.Store().Space()
	var executed []pipeline.Instance
	// misses counts consecutive replay misses; a historical oracle that
	// knows none of the candidates would otherwise keep the loop running.
	misses, maxMisses := 0, maxNew*20

	evaluate := func(in pipeline.Instance) (pipeline.Outcome, bool, error) {
		if _, known := ex.Store().Lookup(in); known {
			return pipeline.OutcomeUnknown, false, nil // free, not counted
		}
		out, err := ex.Evaluate(ctx, in)
		switch {
		case err == nil:
			executed = append(executed, in)
			misses = 0
			return out, true, nil
		case errors.Is(err, exec.ErrBudgetExhausted):
			return pipeline.OutcomeUnknown, false, err
		case errors.Is(err, exec.ErrUnknownInstance):
			misses++
			return pipeline.OutcomeUnknown, false, nil // skip untestable
		default:
			return pipeline.OutcomeUnknown, false, err
		}
	}

	// Initial design: one batched round of random configurations — the
	// candidates are independent hypotheses, so they dispatch as a set and
	// their provenance commits in one batch.
	design := make([]pipeline.Instance, 0, opts.InitialDesign)
	seen := pipeline.NewInstanceMap[struct{}](opts.InitialDesign)
	for i := 0; i < opts.InitialDesign && len(design) < maxNew-len(executed); i++ {
		in := s.RandomInstance(opts.Rand)
		if _, known := ex.Store().Lookup(in); known {
			continue // free, not counted
		}
		if seen.Put(in, struct{}{}) {
			design = append(design, in)
		}
	}
	for _, r := range ex.EvaluateBatch(ctx, design) {
		switch {
		case r.Err == nil:
			executed = append(executed, r.Instance)
			misses = 0
		case errors.Is(r.Err, exec.ErrBudgetExhausted):
			return executed, nil
		case errors.Is(r.Err, exec.ErrUnknownInstance):
			misses++ // untestable candidate; skip
		default:
			return executed, r.Err
		}
	}

	for len(executed) < maxNew && misses < maxMisses {
		if err := ctx.Err(); err != nil {
			return executed, err
		}
		xs, ys, incumbent, best := trainingData(ex)
		if len(xs) == 0 {
			_, _, err := evaluate(s.RandomInstance(opts.Rand))
			if errors.Is(err, exec.ErrBudgetExhausted) {
				return executed, nil
			}
			if err != nil {
				return executed, err
			}
			continue
		}
		model := forest.Train(s, xs, ys, opts.Forest)

		// Candidate pool: random configurations + incumbent neighbourhood.
		cands := make([]pipeline.Instance, 0, opts.Candidates+opts.Neighbours)
		for i := 0; i < opts.Candidates; i++ {
			cands = append(cands, s.RandomInstance(opts.Rand))
		}
		if incumbent.IsValid() {
			for i := 0; i < opts.Neighbours; i++ {
				cands = append(cands, mutate(s, incumbent, opts.Rand))
			}
		}
		var pick pipeline.Instance
		bestEI := math.Inf(-1)
		for _, c := range cands {
			if _, known := ex.Store().Lookup(c); known {
				continue
			}
			mu, variance := model.Predict(c)
			ei := expectedImprovement(mu, math.Sqrt(variance), best)
			if ei > bestEI {
				bestEI, pick = ei, c
			}
		}
		if !pick.IsValid() {
			pick = s.RandomInstance(opts.Rand)
			if _, known := ex.Store().Lookup(pick); known {
				return executed, nil // space effectively exhausted
			}
		}
		_, ran, err := evaluate(pick)
		if errors.Is(err, exec.ErrBudgetExhausted) {
			return executed, nil
		}
		if err != nil {
			return executed, err
		}
		if !ran {
			// Candidate was untestable; avoid spinning forever.
			if _, _, err := evaluate(s.RandomInstance(opts.Rand)); errors.Is(err, exec.ErrBudgetExhausted) {
				return executed, nil
			} else if err != nil {
				return executed, err
			}
		}
	}
	return executed, nil
}

// RandomSearch executes up to maxNew uniformly random untested instances —
// the baseline the paper reports as uniformly worse than SMAC and BugDoc.
func RandomSearch(ctx context.Context, ex *exec.Executor, maxNew int, r *rand.Rand) ([]pipeline.Instance, error) {
	s := ex.Store().Space()
	var executed []pipeline.Instance
	for attempts := 0; len(executed) < maxNew && attempts < maxNew*20; attempts++ {
		if err := ctx.Err(); err != nil {
			return executed, err
		}
		in := s.RandomInstance(r)
		if _, known := ex.Store().Lookup(in); known {
			continue
		}
		_, err := ex.Evaluate(ctx, in)
		switch {
		case err == nil:
			executed = append(executed, in)
		case errors.Is(err, exec.ErrBudgetExhausted):
			return executed, nil
		case errors.Is(err, exec.ErrUnknownInstance):
			continue
		default:
			return executed, err
		}
	}
	return executed, nil
}

// trainingData converts provenance into regression data (fail = 1) and
// returns the incumbent (a failing instance, if any) plus the reference
// score for expected improvement. With a binary outcome the classic
// max-observed incumbent degenerates (after the first failure, best = 1.0
// and EI reduces to pure exploration), so the reference is the mean
// observed failure rate — improvement over a random configuration — which
// keeps the search exploiting predicted-fail regions.
func trainingData(ex *exec.Executor) (xs []pipeline.Instance, ys []float64, incumbent pipeline.Instance, best float64) {
	sum := 0.0
	for _, r := range ex.Store().Snapshot().Records() {
		y := 0.0
		if r.Outcome == pipeline.Fail {
			y = 1.0
			if !incumbent.IsValid() {
				incumbent = r.Instance
			}
		}
		xs = append(xs, r.Instance)
		ys = append(ys, y)
		sum += y
	}
	if len(ys) > 0 {
		best = sum / float64(len(ys))
	}
	return
}

// mutate flips one random parameter of the incumbent to a random different
// domain value (SMAC's one-exchange neighbourhood).
func mutate(s *pipeline.Space, in pipeline.Instance, r *rand.Rand) pipeline.Instance {
	pi := r.Intn(s.Len())
	n := len(s.At(pi).Domain)
	if n < 2 {
		return in
	}
	for {
		j := r.Intn(n)
		if s.DomainCode(pi, j) != in.Code(pi) {
			return in.WithDomain(pi, j)
		}
	}
}

// expectedImprovement is the standard EI acquisition for maximization with
// a Gaussian posterior approximation N(mu, sigma^2) over the incumbent
// value best.
func expectedImprovement(mu, sigma, best float64) float64 {
	if sigma < 1e-12 {
		if mu > best {
			return mu - best
		}
		return 0
	}
	z := (mu - best) / sigma
	return (mu-best)*stdNormCDF(z) + sigma*stdNormPDF(z)
}

func stdNormPDF(z float64) float64 {
	return math.Exp(-z*z/2) / math.Sqrt(2*math.Pi)
}

func stdNormCDF(z float64) float64 {
	return 0.5 * math.Erfc(-z/math.Sqrt2)
}
