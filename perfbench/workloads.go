package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"path/filepath"

	"repro/bugdoc"
	"repro/internal/core"
	"repro/internal/dataxray"
	"repro/internal/exec"
	"repro/internal/exptables"
	"repro/internal/metrics"
	"repro/internal/pipeline"
	"repro/internal/predicate"
	"repro/internal/provenance"
	"repro/internal/provlog"
	"repro/internal/smac"
	"repro/internal/synth"
	"repro/internal/telemetry"
)

// env is what a session may use besides its problem: the tracer and the
// telemetry registry of a traced pass (both nil when untraced).
type env struct {
	tr  *tracer
	reg *telemetry.Registry
}

// result is one session's output. The exact fields (causes, spent, calls,
// baselines) must repeat on every pass over the same problem.
type result struct {
	causes predicate.DNF
	// spent is the new oracle executions of the session's BugDoc search.
	spent int
	// calls is every oracle call the session made.
	calls int64
	// baselines are the explanation baselines' causes (paper-compare).
	baselines []predicate.DNF
	// store is the provenance the session's search produced.
	store *provenance.Store
	// judged is set by sessions that score their own answers.
	judged judged
}

// judged is the part of a result the harness aggregates into the exact
// metrics.
type judged struct {
	eval      metrics.PipelineEval
	baselines []metrics.PipelineEval
}

// problemSet is one workload's seeded inputs. prepare and check are
// untimed; run is the timed session.
type problemSet interface {
	size() int
	prepare(i int) error
	run(ctx context.Context, i int, e env) (result, error)
	// check verifies a session's output and judges it against the planted
	// truth; first is set on the warm-up pass, whose judgements become the
	// exact metrics.
	check(i int, res result, e env, first bool) (judged, error)
}

// workload names a problem-set builder. findAll selects the FindAll or the
// FindOne reading of precision and recall. passSeconds is the session time
// one timed pass over the problem set is budgeted: a run makes
// --seconds/passSeconds passes whatever the seed, so the session time it
// measures varies with the seed's histories and the machine's speed (the
// output prints it). On a 2-core x86-64 VM a pass measured 1.4-2.4 s
// (ddt-findall), 4.2-5.1 s (paper-compare) and 0.45-0.6 s (durable-resume).
type workload struct {
	name        string
	findAll     bool
	passSeconds float64
	setup       func(ctx context.Context, seed int64, dir string) (problemSet, error)
}

var workloads = []workload{
	{name: "ddt-findall", findAll: true, passSeconds: 3, setup: setupDDT},
	{name: "paper-compare", findAll: true, passSeconds: 5, setup: setupCompare},
	{name: "durable-resume", findAll: false, passSeconds: 0.5, setup: setupDurable},
}

// synthSpec says how to generate one synthetic debugging problem: the
// pipeline from pipeSeed, its history and search randomness from histSeed.
type synthSpec struct {
	pipeSeed, histSeed int64
	cfg                synth.Config
}

// synthProblem is one seeded synthetic debugging problem: a Disjunction
// pipeline and the history every session of it starts from — a planted
// failing instance followed by core.SeedHistory, as in the paper's
// experiments.
type synthProblem struct {
	sp         *synth.Pipeline
	seeds      []provenance.Entry
	searchSeed int64
}

func (s synthSpec) generate(ctx context.Context) (*synthProblem, error) {
	sp, err := synth.Generate(rand.New(rand.NewSource(s.pipeSeed)), s.cfg, synth.Disjunction)
	if err != nil {
		return nil, err
	}
	r := rand.New(rand.NewSource(s.histSeed))
	ex := exec.New(sp.Oracle(), provenance.NewStore(sp.Space))
	if in, ok := sp.SampleFailing(r); ok {
		if _, err := ex.Evaluate(ctx, in); err != nil {
			return nil, err
		}
	}
	if err := core.SeedHistory(ctx, ex, r, 2000); err != nil {
		return nil, err
	}
	recs := ex.Store().Snapshot().Records()
	seeds := make([]provenance.Entry, len(recs))
	for i, rec := range recs {
		seeds[i] = provenance.Entry{Instance: rec.Instance, Outcome: rec.Outcome, Source: "seed"}
	}
	return &synthProblem{sp: sp, seeds: seeds, searchSeed: r.Int63()}, nil
}

// open builds a fresh executor over the problem's seed history.
func (p *synthProblem) open(oracle exec.Oracle, budget int, e env) (*exec.Executor, error) {
	st := provenance.NewStoreWithCapacity(p.sp.Space, len(p.seeds))
	if _, err := st.AddBatch(p.seeds); err != nil {
		return nil, err
	}
	opts := []exec.Option{exec.WithBudget(budget)}
	if e.reg != nil {
		opts = append(opts, exec.WithTelemetry(exec.NewTelemetry(e.reg, nil, 1)))
	}
	return exec.New(oracle, st, opts...), nil
}

// judge scores causes against the problem's planted truth.
func judge(e env, causes predicate.DNF, sp *synth.Pipeline) (ev metrics.PipelineEval, err error) {
	err = e.tr.within("metrics.judge", func() error {
		ev, err = metrics.Judge(sp.Space, causes, sp.Truth, sp.Minimal)
		return err
	})
	return ev, err
}

// synthSet is an in-memory workload. Set-up generates every problem once
// (that is the input generation setup_s times) but keeps only their specs;
// prepare regenerates the next session's problem, so that one problem is
// live at a time, as in a one-session CLI process, and the forced GC
// before each session stays cheap.
type synthSet struct {
	specs   []synthSpec
	cur     *synthProblem
	session func(ctx context.Context, p *synthProblem, e env) (result, error)
	judge   func(i int, p *synthProblem, res result, e env, first bool) (judged, error)
}

// suiteSeed draws the in-memory workloads' pipelines. The pipelines are a
// fixed suite, like the fixed pipeline sets of the paper's figures; the
// workload seed draws each pipeline's history (its planted failing run and
// the random runs of core.SeedHistory) and the search's randomness. A
// session's cost depends so much on its pipeline that a suite redrawn per
// seed moves the medians by more than the benchmark's bounds.
const suiteSeed = 2020

// newSynthSet builds n problems over the suite for seed; cfg gives problem
// i's ranges.
func newSynthSet(ctx context.Context, seed int64, n int, cfg func(i int) synth.Config) (*synthSet, error) {
	suite, r := rand.New(rand.NewSource(suiteSeed)), rand.New(rand.NewSource(seed))
	set := &synthSet{}
	for i := 0; i < n; i++ {
		spec := synthSpec{pipeSeed: suite.Int63(), histSeed: r.Int63(), cfg: cfg(i)}
		if _, err := spec.generate(ctx); err != nil {
			return nil, err
		}
		set.specs = append(set.specs, spec)
	}
	return set, nil
}

func (s *synthSet) size() int { return len(s.specs) }

func (s *synthSet) prepare(i int) (err error) {
	s.cur = nil // let the forced GC collect the previous problem
	s.cur, err = s.specs[i].generate(context.Background())
	return err
}

func (s *synthSet) run(ctx context.Context, _ int, e env) (result, error) {
	return s.session(ctx, s.cur, e)
}

func (s *synthSet) check(i int, res result, e env, first bool) (judged, error) {
	return s.judge(i, s.cur, res, e, first)
}

// stratified spreads problem i of n evenly over [lo, hi], so every seed's
// problem set covers the range in the same proportions.
func stratified(i, n, lo, hi int) int {
	return lo + i*(hi-lo+1)/n
}

// ---- ddt-findall ------------------------------------------------------

const (
	// ddtProblems is the ddt-findall problem count.
	ddtProblems = 900
	// ddtBaselineEvery picks the problems whose warm-up session also runs
	// the explanation baselines (they cost ~20 DDT sessions each).
	ddtBaselineEvery = 5
)

// setupDDT draws Disjunction pipelines at the paper's ranges: 3-15
// parameters (stratified over the set) and 5-30 values per parameter.
func setupDDT(ctx context.Context, seed int64, _ string) (problemSet, error) {
	set, err := newSynthSet(ctx, seed, ddtProblems, func(i int) synth.Config {
		params := stratified(i, ddtProblems, 3, 15)
		return synth.Config{MinParams: params, MaxParams: params, MinValues: 5, MaxValues: 30}
	})
	if err != nil {
		return nil, err
	}
	set.session, set.judge = ddtSession, ddtJudge
	return set, nil
}

// ddtSession is a DDT FindAll session with one worker and no budget.
func ddtSession(ctx context.Context, p *synthProblem, e env) (result, error) {
	or := &countingOracle{inner: p.sp.Oracle(), tr: e.tr}
	var res result
	var ex *exec.Executor
	err := e.tr.within("open", func() (err error) {
		ex, err = p.open(or, -1, e)
		return err
	})
	if err != nil {
		return res, err
	}
	err = e.tr.within("core.search", func() (err error) {
		res.causes, err = core.FindAll(ctx, ex, core.AlgoDDT, core.Options{Rand: rand.New(rand.NewSource(p.searchSeed))})
		return err
	})
	res.spent, res.calls, res.store = ex.Spent(), or.calls.Load(), ex.Store()
	return res, err
}

// ddtJudge judges the DDT causes. On the warm-up pass every
// ddtBaselineEvery-th problem also runs the two explanation baselines over
// the session's instances (the "BugDoc insts" methods of Figure 3) for
// baseline_f, which every workload reports because every run reports every
// end-to-end metric.
func ddtJudge(i int, p *synthProblem, res result, e env, first bool) (j judged, err error) {
	if j.eval, err = judge(e, res.causes, p.sp); err != nil || !first || i%ddtBaselineEvery != 0 {
		return j, err
	}
	j.baselines, err = judgeBaselines(e, p.sp, res.store, p.searchSeed)
	return j, err
}

// judgeBaselines runs both explanation baselines over st and judges them.
func judgeBaselines(e env, sp *synth.Pipeline, st *provenance.Store, seed int64) ([]metrics.PipelineEval, error) {
	causes, err := explainBoth(e, sp.Space, st, seed)
	if err != nil {
		return nil, err
	}
	evs := make([]metrics.PipelineEval, len(causes))
	for k, c := range causes {
		if evs[k], err = judge(e, c, sp); err != nil {
			return nil, err
		}
	}
	return evs, nil
}

// explainBoth runs Data X-Ray and Explanation Tables over one store.
func explainBoth(e env, s *pipeline.Space, st *provenance.Store, seed int64) ([]predicate.DNF, error) {
	var xray, et predicate.DNF
	err := e.tr.within("dataxray.diagnose", func() (err error) {
		xray, err = dataxray.Diagnose(s, st, dataxray.Options{})
		return err
	})
	_ = e.tr.within("exptables.explain", func() error {
		et = exptables.AsCauses(exptables.Explain(s, st, exptables.Options{Rand: rand.New(rand.NewSource(seed))}))
		return nil
	})
	return []predicate.DNF{xray, et}, err
}

// ---- paper-compare ----------------------------------------------------

const (
	// compareProblems is the paper-compare cell count.
	compareProblems = 200
	// compareBudget is SMAC's execution budget in every cell, about the
	// suite's median DDT spend. Figure 3 gives SMAC the DDT run's own
	// spend instead; but SMAC's cost grows with the square of its budget,
	// and with per-cell budgets the session medians moved by 20-35%
	// between seeds, more than the benchmark's bounds.
	compareBudget = 40
)

// setupCompare draws Figure 3 pipelines at bugdoc-bench's reduced ranges:
// 3-6 parameters (stratified) and 4-8 values.
func setupCompare(ctx context.Context, seed int64, _ string) (problemSet, error) {
	set, err := newSynthSet(ctx, seed, compareProblems, func(i int) synth.Config {
		params := stratified(i, compareProblems, 3, 6)
		return synth.Config{MinParams: params, MaxParams: params, MinValues: 4, MaxValues: 8}
	})
	if err != nil {
		return nil, err
	}
	set.session = compareSession
	set.judge = func(_ int, _ *synthProblem, res result, _ env, _ bool) (judged, error) {
		return res.judged, nil
	}
	return set, nil
}

// compareSession runs one Figure 3 cell: DDT FindAll, SMAC under
// compareBudget, both explanation baselines over both stores, and
// metrics.Judge scoring all five answers.
func compareSession(ctx context.Context, p *synthProblem, e env) (result, error) {
	or := &countingOracle{inner: p.sp.Oracle(), tr: e.tr}
	var res result
	var ddtEx, smacEx *exec.Executor
	err := e.tr.within("open", func() (err error) {
		ddtEx, err = p.open(or, -1, e)
		return err
	})
	if err != nil {
		return res, err
	}
	err = e.tr.within("core.search", func() (err error) {
		res.causes, err = core.FindAll(ctx, ddtEx, core.AlgoDDT, core.Options{Rand: rand.New(rand.NewSource(p.searchSeed))})
		return err
	})
	if err != nil {
		return res, err
	}
	res.spent = ddtEx.Spent()
	if smacEx, err = p.open(or, compareBudget, e); err != nil {
		return res, err
	}
	err = e.tr.within("smac.run", func() error {
		_, err := smac.Run(ctx, smacEx, compareBudget, smac.Options{Rand: rand.New(rand.NewSource(p.searchSeed + 1))})
		return err
	})
	if err != nil {
		return res, err
	}
	for k, st := range []*provenance.Store{ddtEx.Store(), smacEx.Store()} {
		causes, err := explainBoth(e, p.sp.Space, st, p.searchSeed+2+int64(k))
		if err != nil {
			return res, err
		}
		res.baselines = append(res.baselines, causes...)
	}
	res.calls = or.calls.Load()
	if res.judged.eval, err = judge(e, res.causes, p.sp); err != nil {
		return res, err
	}
	for _, b := range res.baselines {
		ev, err := judge(e, b, p.sp)
		if err != nil {
			return res, err
		}
		res.judged.baselines = append(res.judged.baselines, ev)
	}
	return res, nil
}

// ---- durable-resume ---------------------------------------------------

// The durable-resume state directories, one per problem: each holds
// durableCheckpointed records folded into a checkpoint plus a
// durableSuffix-record WAL suffix on a 10-parameter, 12-value space with a
// single planted triple (with only four pipelines, multi-triple causes the
// Stacked Shortcut misses on some histories would make precision and recall
// jump by a quarter with the seed).
const (
	durableDirs         = 4
	durableCheckpointed = 100_000
	durableSuffix       = 20_000
	durableParams       = 10
	durableValues       = 12
	durableBatch        = 4096
)

type durableDir struct {
	dir      string
	sp       *synth.Pipeline
	prepared int
}

type durableSet struct {
	dirs []durableDir
	work string // the session's copy of a prepared directory
}

// setupDurable prepares the state directories of the suite's durable
// pipelines, with histories drawn from seed.
func setupDurable(ctx context.Context, seed int64, dir string) (problemSet, error) {
	suite, r := rand.New(rand.NewSource(suiteSeed)), rand.New(rand.NewSource(seed))
	set := &durableSet{work: filepath.Join(dir, "session")}
	for d := 0; d < durableDirs; d++ {
		dd, err := prepareDurableDir(ctx, rand.New(rand.NewSource(suite.Int63())), rand.New(rand.NewSource(r.Int63())),
			filepath.Join(dir, fmt.Sprintf("state%d", d)))
		if err != nil {
			return nil, err
		}
		set.dirs = append(set.dirs, dd)
	}
	return set, nil
}

// prepareDurableDir writes one state directory: a planted failing
// instance and durableCheckpointed random instances, a checkpoint, then a
// durableSuffix-record WAL suffix.
func prepareDurableDir(ctx context.Context, pipe, r *rand.Rand, dir string) (durableDir, error) {
	sp, err := synth.Generate(pipe, synth.Config{MinParams: durableParams, MaxParams: durableParams,
		MinValues: durableValues, MaxValues: durableValues}, synth.SingleTriple)
	if err != nil {
		return durableDir{}, err
	}
	ex, err := exec.NewDurable(sp.Oracle(), sp.Space, dir)
	if err != nil {
		return durableDir{}, err
	}
	add := func(n int) error {
		batch := make([]pipeline.Instance, 0, durableBatch)
		for n > 0 {
			batch = batch[:0]
			for k := 0; k < min(n, durableBatch); k++ {
				batch = append(batch, sp.Space.RandomInstance(r))
			}
			for _, res := range ex.EvaluateBatch(ctx, batch) {
				if res.Err != nil {
					return res.Err
				}
			}
			n -= len(batch)
		}
		return nil
	}
	if in, ok := sp.SampleFailing(r); ok {
		_, err = ex.Evaluate(ctx, in)
	}
	if err == nil {
		err = add(durableCheckpointed)
	}
	if err == nil {
		err = ex.Checkpoint()
	}
	if err == nil {
		err = add(durableSuffix)
	}
	prepared := ex.Store().Len()
	if cerr := ex.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return durableDir{}, fmt.Errorf("prepare %s: %w", dir, err)
	}
	return durableDir{dir: dir, sp: sp, prepared: prepared}, nil
}

func (d *durableSet) size() int { return len(d.dirs) }

// prepare gives the session its own copy of its prepared directory.
func (d *durableSet) prepare(i int) error {
	if err := os.RemoveAll(d.work); err != nil {
		return err
	}
	return copyDir(d.dirs[i].dir, d.work)
}

// run is the CLI resume shape: ResumeSession with fsync and two
// workers, FindOne with the Stacked Shortcut, a checkpoint, and Close.
func (d *durableSet) run(ctx context.Context, i int, e env) (res result, err error) {
	or := &countingOracle{inner: d.dirs[i].sp.Oracle(), tr: e.tr}
	opts := []bugdoc.Option{bugdoc.WithFsync(true), bugdoc.WithWorkers(2)}
	if e.reg != nil {
		opts = append(opts, bugdoc.WithTelemetry(e.reg))
	}
	var s *bugdoc.Session
	err = e.tr.within("provlog.resume", func() (err error) {
		s, err = bugdoc.ResumeSession(d.work, or, opts...)
		return err
	})
	if err != nil {
		return res, err
	}
	closed := false
	defer func() {
		if !closed {
			err = errors.Join(err, s.Close())
		}
	}()
	err = e.tr.within("core.search", func() (err error) {
		res.causes, err = s.FindOne(ctx, bugdoc.StackedShortcut)
		return err
	})
	if err != nil {
		return res, err
	}
	res.spent, res.calls = s.Spent(), or.calls.Load()
	if err = e.tr.within("provlog.checkpoint", s.Checkpoint); err != nil {
		return res, err
	}
	closed = true
	err = e.tr.within("provlog.close", s.Close)
	return res, err
}

// check reopens the closed state directory: it must hold exactly the
// prepared records plus the session's new executions, and every oracle
// call must have been a new execution (no repeated calls). On the warm-up
// pass the explanation baselines read the session's own executions, the
// newest res.spent records, like Figure 3's methods over BugDoc's instances.
func (d *durableSet) check(i int, res result, e env, first bool) (judged, error) {
	dd := d.dirs[i]
	var j judged
	st, err := provlog.Replay(d.work, dd.sp.Space)
	if err != nil {
		return j, err
	}
	if got, want := st.Len(), dd.prepared+res.spent; got != want {
		return j, fmt.Errorf("closed store holds %d records, want %d prepared + %d new", got, dd.prepared, res.spent)
	}
	if res.calls != int64(res.spent) {
		return j, fmt.Errorf("%d oracle calls for %d new executions", res.calls, res.spent)
	}
	if j.eval, err = judge(e, res.causes, dd.sp); err != nil || !first {
		return j, err
	}
	recs := st.Snapshot().Records()
	own := provenance.NewStoreWithCapacity(dd.sp.Space, res.spent)
	for _, rec := range recs[len(recs)-res.spent:] {
		if err := own.Add(rec.Instance, rec.Outcome, rec.Source); err != nil {
			return j, err
		}
	}
	j.baselines, err = judgeBaselines(e, dd.sp, own, int64(i))
	return j, err
}

// copyDir gives a session its own fsynced copy of the prepared directory
// src: checkpoint tiers (*.ckpt), which provlog only ever creates and
// deletes whole, are hard-linked; every other regular file is copied.
// Linking the 6 MB tier keeps each session from writing it again.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range ents {
		from, to := filepath.Join(src, ent.Name()), filepath.Join(dst, ent.Name())
		switch {
		case !ent.Type().IsRegular():
			return fmt.Errorf("copy %s: %s is not a regular file", src, ent.Name())
		case filepath.Ext(ent.Name()) == ".ckpt":
			err = os.Link(from, to)
		default:
			err = copyFile(from, to)
		}
		if err != nil {
			return err
		}
	}
	dir, err := os.Open(dst)
	if err != nil {
		return err
	}
	defer dir.Close()
	return dir.Sync()
}

func copyFile(src, dst string) error {
	in, err := os.Open(src)
	if err != nil {
		return err
	}
	defer in.Close()
	out, err := os.Create(dst)
	if err != nil {
		return err
	}
	if _, err := io.Copy(out, in); err != nil {
		out.Close()
		return err
	}
	if err := out.Sync(); err != nil {
		out.Close()
		return err
	}
	return out.Close()
}
