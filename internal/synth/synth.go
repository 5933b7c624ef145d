// Package synth generates the synthetic pipeline benchmark of Section 5.1:
// parameter spaces with 3-15 parameters of 5-30 values each (ordinal or
// categorical with probability 1/2), and planted definitive root causes
// built as conjunctions of parameter-comparator-value triples with
// comparators drawn from C = {=, <=, >, !=}, optionally extended with a
// second conjunct to form a disjunction.
//
// Each generated pipeline carries its ground truth: the failure DNF and the
// set of minimal definitive root causes R(CP) computed exactly with the
// region algebra. Degenerate draws — unsatisfiable causes, causes covering
// so much of the space that no disjoint succeeding instance can exist, or
// conjuncts subsumed by one another — are rejected and re-sampled.
package synth

import (
	"context"
	"fmt"
	"math/rand"

	"repro/internal/exec"
	"repro/internal/pipeline"
	"repro/internal/predicate"
)

// Scenario selects the root-cause shape of Section 5.1.
type Scenario uint8

const (
	// SingleTriple plants one parameter-comparator-value triple.
	SingleTriple Scenario = iota + 1
	// SingleConjunction plants one conjunction of 2-4 triples.
	SingleConjunction
	// Disjunction plants a disjunction of two conjunctions.
	Disjunction
)

// String names the scenario as in the Figure 2 captions.
func (sc Scenario) String() string {
	switch sc {
	case SingleTriple:
		return "single parameter-comparator-value"
	case SingleConjunction:
		return "single conjunction"
	case Disjunction:
		return "disjunction of conjunctions"
	default:
		return fmt.Sprintf("Scenario(%d)", uint8(sc))
	}
}

// Config bounds the generated spaces; zero values take the paper's ranges.
type Config struct {
	MinParams int // default 3
	MaxParams int // default 15
	MinValues int // default 5
	MaxValues int // default 30
	// MaxFailFraction rejects causes covering more than this fraction of
	// the space (default 0.5), guaranteeing succeeding instances exist.
	MaxFailFraction float64
}

func (c Config) withDefaults() Config {
	if c.MinParams <= 0 {
		c.MinParams = 3
	}
	if c.MaxParams <= 0 {
		c.MaxParams = 15
	}
	if c.MinValues <= 0 {
		c.MinValues = 5
	}
	if c.MaxValues <= 0 {
		c.MaxValues = 30
	}
	if c.MaxFailFraction <= 0 {
		c.MaxFailFraction = 0.5
	}
	return c
}

// Pipeline is one synthetic benchmark pipeline: a parameter space, the
// planted failure condition, and the exact ground-truth minimal definitive
// root causes.
type Pipeline struct {
	Space *pipeline.Space
	Truth predicate.DNF
	// Minimal is R(CP): the minimal definitive root causes, one per
	// planted conjunct (each conjunct is minimized and verified minimal).
	Minimal []predicate.Conjunction
}

// Oracle returns the black-box evaluation: an instance fails exactly when
// it satisfies the planted failure condition.
func (p *Pipeline) Oracle() exec.Oracle {
	return exec.OracleFunc(func(_ context.Context, in pipeline.Instance) (pipeline.Outcome, error) {
		if p.Truth.Satisfied(in) {
			return pipeline.Fail, nil
		}
		return pipeline.Succeed, nil
	})
}

// SampleFailing draws a uniformly random instance from a random conjunct's
// failure region. The benchmark protocol seeds each debugging problem with
// at least one failing run — the paper's setting hands BugDoc previously
// run instances "some of which crash" — and rejection sampling alone cannot
// find failures when the planted region is a sliver of a large space.
func (p *Pipeline) SampleFailing(r *rand.Rand) (pipeline.Instance, bool) {
	if len(p.Truth) == 0 {
		return pipeline.Instance{}, false
	}
	reg, err := predicate.RegionOf(p.Space, p.Truth[r.Intn(len(p.Truth))])
	if err != nil || reg.Empty() {
		return pipeline.Instance{}, false
	}
	idx := make([]int, p.Space.Len())
	for i := range idx {
		allowed := reg.AllowedIndices(i)
		idx[i] = allowed[r.Intn(len(allowed))]
	}
	return p.Space.DomainInstance(idx), true
}

// Generate draws one pipeline for the scenario. It retries internally until
// a non-degenerate pipeline is produced; the randomness source r makes it
// deterministic per seed.
func Generate(r *rand.Rand, cfg Config, sc Scenario) (*Pipeline, error) {
	cfg = cfg.withDefaults()
	for attempt := 0; attempt < 1000; attempt++ {
		p, ok := generateOnce(r, cfg, sc)
		if ok {
			return p, nil
		}
	}
	return nil, fmt.Errorf("synth: could not generate a non-degenerate %v pipeline", sc)
}

// GenerateSpace draws a parameter space alone (used by scalability sweeps
// that need an exact parameter count).
func GenerateSpace(r *rand.Rand, nParams, minValues, maxValues int) *pipeline.Space {
	params := make([]pipeline.Parameter, nParams)
	for i := range params {
		nVals := minValues + r.Intn(maxValues-minValues+1)
		name := fmt.Sprintf("p%02d", i)
		// Ordinal or categorical with probability 1/2 each.
		if r.Intn(2) == 0 {
			dom := make([]pipeline.Value, nVals)
			for j := range dom {
				dom[j] = pipeline.Ord(float64(j + 1))
			}
			params[i] = pipeline.Parameter{Name: name, Kind: pipeline.Ordinal, Domain: dom}
		} else {
			dom := make([]pipeline.Value, nVals)
			for j := range dom {
				dom[j] = pipeline.Cat(fmt.Sprintf("%s_v%02d", name, j+1))
			}
			params[i] = pipeline.Parameter{Name: name, Kind: pipeline.Categorical, Domain: dom}
		}
	}
	return pipeline.MustSpace(params...)
}

func generateOnce(r *rand.Rand, cfg Config, sc Scenario) (*Pipeline, bool) {
	nParams := cfg.MinParams + r.Intn(cfg.MaxParams-cfg.MinParams+1)
	s := GenerateSpace(r, nParams, cfg.MinValues, cfg.MaxValues)

	var truth predicate.DNF
	switch sc {
	case SingleTriple:
		truth = predicate.DNF{sampleConjunction(r, s, 1, 1)}
	case SingleConjunction:
		truth = predicate.DNF{sampleConjunction(r, s, 2, min(4, nParams))}
	case Disjunction:
		truth = predicate.DNF{
			sampleConjunction(r, s, 1, min(3, nParams)),
			sampleConjunction(r, s, 1, min(3, nParams)),
		}
	default:
		return nil, false
	}
	return validate(s, truth, cfg)
}

// SampleCause draws one conjunction per the paper's recipe (steps 1-3 of
// Section 5.1); exported for tests and ablation benches.
func SampleCause(r *rand.Rand, s *pipeline.Space, minLen, maxLen int) predicate.Conjunction {
	return sampleConjunction(r, s, minLen, maxLen)
}

func sampleConjunction(r *rand.Rand, s *pipeline.Space, minLen, maxLen int) predicate.Conjunction {
	if maxLen > s.Len() {
		maxLen = s.Len()
	}
	if minLen > maxLen {
		minLen = maxLen
	}
	// Step 1: uniformly sample a non-empty subset of parameters.
	k := minLen
	if maxLen > minLen {
		k += r.Intn(maxLen - minLen + 1)
	}
	perm := r.Perm(s.Len())[:k]
	var c predicate.Conjunction
	for _, pi := range perm {
		p := s.At(pi)
		// Step 2: uniformly sample a value from the parameter's domain.
		v := p.Domain[r.Intn(len(p.Domain))]
		// Step 3: uniformly sample a comparator from C = {=, <=, >, !=};
		// categorical parameters only admit {=, !=}.
		var cmp predicate.Comparator
		if p.Kind == pipeline.Ordinal {
			cmp = []predicate.Comparator{predicate.Eq, predicate.Le, predicate.Gt, predicate.Neq}[r.Intn(4)]
		} else {
			cmp = []predicate.Comparator{predicate.Eq, predicate.Neq}[r.Intn(2)]
		}
		c = append(c, predicate.T(p.Name, cmp, v))
	}
	return c.Canonical()
}

// validate rejects degenerate pipelines and computes the ground truth.
func validate(s *pipeline.Space, truth predicate.DNF, cfg Config) (*Pipeline, bool) {
	total, exact := s.NumInstances()
	var failCount float64
	var minimal []predicate.Conjunction
	var regions []predicate.Region
	for _, c := range truth {
		reg, err := predicate.RegionOf(s, c)
		if err != nil || reg.Empty() {
			return nil, false
		}
		// Minimize the planted conjunct against the full truth; reject when
		// minimization collapses it (conjunct subsumed by the other).
		m, err := predicate.Minimize(s, c, truth)
		if err != nil || len(m) == 0 {
			return nil, false
		}
		mr, err := predicate.RegionOf(s, m)
		if err != nil {
			return nil, false
		}
		for _, prev := range regions {
			if prev.Equal(mr) {
				return nil, false // duplicate causes
			}
		}
		minimal = append(minimal, m)
		regions = append(regions, mr)
		n, _ := reg.Count()
		failCount += float64(n)
	}
	// Overlap makes this an upper bound, which is fine for rejection.
	if exact && failCount > cfg.MaxFailFraction*float64(total) {
		return nil, false
	}
	// Cross-subsumption check: no minimal cause may imply another conjunct
	// of the truth (that would make the "two causes" really one).
	if len(truth) > 1 {
		for i := range regions {
			for j := range regions {
				if i != j && regions[i].SubsetOf(regions[j]) {
					return nil, false
				}
			}
		}
	}
	return &Pipeline{Space: s, Truth: truth.Canonical(), Minimal: minimal}, true
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
