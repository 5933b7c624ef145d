// Command perfbench is the end-to-end benchmark of this BugDoc
// reproduction: whole debugging sessions on seeded synthetic pipelines,
// timed as a user waits for them, with their answers checked against the
// planted root causes. Run it from the repository root:
//
//	bash perfbench/run.sh --workload ddt-findall --seed 1 --seconds 20 --trace 0
//
// run.sh builds this package from the checkout's sources into
// .bench_build/ and passes its arguments through.
//
// Workloads (closed loop: one client, one process, at most two threads; the
// oracles are the zero-latency synthetic ones, whose real cost is what
// execs_per_cause counts):
//
//   - ddt-findall: DDT FindAll, one worker, unlimited budget, on Disjunction
//     pipelines at the paper's ranges. Stresses dtree and core.
//   - paper-compare: one Figure 3 cell per pipeline at the reduced ranges:
//     DDT FindAll, SMAC under a fixed budget, Data X-Ray and Explanation
//     Tables over both stores, metrics.Judge on all five. Stresses smac and
//     its forest surrogate.
//   - durable-resume: resume a prepared 120k-record state directory with
//     fsync and two workers, FindOne with the Stacked Shortcut, checkpoint,
//     close. Stresses provenance and provlog.
//
// The pipelines of each workload are a fixed suite; --seed draws their
// histories and the searches' randomness (see suiteSeed).
//
// A run sets the workload up at least setupReps times and for at least
// setupMin (setup_s is the median), makes one untimed warm-up pass over its
// problem set, then makes a fixed number of timed passes over the whole set,
// forcing a GC before each session. The number of passes depends only on the
// workload and --seconds (see workload.passSeconds), never on the seed, so
// every seed's per-problem medians are taken over as many samples. A
// problem's sample is its median over the passes. Every session's answer is
// judged and must repeat the warm-up pass exactly; a session that errors or
// differs counts as failed.
//
// With --trace 1 the run splits its passes between untraced passes and traced
// passes that record spans around the benchmark's calls into each layer,
// a telemetry registry, and a CPU profile, and prints the per-layer metrics
// (layers.go lists them with the end-to-end metric each should move). The
// spans, the telemetry snapshot and the checks go to
// .bench_build/perfbench/trace-<workload>-<seed>.json.
//
// The last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
	"repro/internal/telemetry"
)

// A run sets its workload up at least setupReps times and until setupMin
// has passed; setup_s is the median.
const (
	setupReps = 3
	setupMin  = time.Second
)

// workDir, relative to the repository root, holds the run's state
// directories and the traced run's output; run.sh builds the binary there.
const workDir = ".bench_build/perfbench"

// minPasses is the fewest timed passes a phase makes.
const minPasses = 2

// runLimit bounds a run's wall time: a pass that would end after it is not
// started (the output says so). Only a seed whose histories make sessions
// several times slower than usual reaches it.
const runLimit = 150 * time.Second

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		os.Exit(1)
	}
}

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type report struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var (
		name    = fs.String("workload", "", "ddt-findall | paper-compare | durable-resume")
		seed    = fs.Int64("seed", 1, "workload seed")
		seconds = fs.Float64("seconds", 20, "timed session seconds per run, at the workload's nominal pass time")
		trace   = fs.Int("trace", 0, "1 reports the per-layer metrics of a traced run")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("--trace takes 0 or 1, not %d", *trace)
	}
	var w *workload
	for k := range workloads {
		if workloads[k].name == *name {
			w = &workloads[k]
		}
	}
	if w == nil {
		return fmt.Errorf("unknown workload %q", *name)
	}
	deadline := time.Now().Add(runLimit)
	runtime.GOMAXPROCS(min(2, runtime.NumCPU()))
	if err := os.MkdirAll(workDir, 0o755); err != nil {
		return err
	}
	runDir, err := os.MkdirTemp(workDir, "run-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(runDir)

	ctx := context.Background()
	h := &harness{w: w}
	set, setupS, err := setUp(ctx, w, *seed, runDir)
	if err != nil {
		return fmt.Errorf("setup: %w", err)
	}
	h.set = set
	h.warmUp(ctx)
	passes := max(minPasses, int(*seconds/w.passSeconds+0.5))

	rep := report{Metrics: map[string]metric{}}
	if *trace == 0 {
		s := h.measure(ctx, passes, deadline, env{})
		h.endToEnd(s, setupS, rep.Metrics)
		h.describe(stdout, s, passes)
	} else {
		passes = max(minPasses, passes/2)
		plain := h.measure(ctx, passes, deadline, env{})
		tr, reg := newTracer(), telemetry.NewRegistry()
		var prof bytes.Buffer
		if err := pprof.StartCPUProfile(&prof); err != nil {
			return err
		}
		traced := h.measure(ctx, passes, deadline, env{tr: tr, reg: reg})
		pprof.StopCPUProfile()
		out, err := h.perLayer(plain, traced, tr.spans, reg.Snapshot(), prof.Bytes(), rep.Metrics)
		if err != nil {
			return fmt.Errorf("trace: %w", err)
		}
		path := filepath.Join(workDir, fmt.Sprintf("trace-%s-%d.json", w.name, *seed))
		if err := writeJSON(path, out); err != nil {
			return err
		}
		h.describe(stdout, plain, passes)
		h.describe(stdout, traced, passes)
		fmt.Fprintf(stdout, "trace written to %s\n", path)
	}
	rep.Attempted, rep.Failed = h.attempted, h.failed
	rep.Correct = h.failed == 0
	for _, msg := range h.failures {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", msg)
	}
	names := make([]string, 0, len(rep.Metrics))
	for n := range rep.Metrics {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Fprintf(stdout, "%-32s %14.6g %s\n", n, rep.Metrics[n].Value, rep.Metrics[n].Unit)
	}
	line, err := json.Marshal(rep)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(stdout, "%s\n", line)
	return err
}

// setUp builds the workload repeatedly from the same seed, each time in a
// fresh directory under runDir, and keeps the last problem set; it returns
// the median set-up time in seconds.
func setUp(ctx context.Context, w *workload, seed int64, runDir string) (problemSet, float64, error) {
	var times []float64
	var set problemSet
	for k, start := 0, time.Now(); k < setupReps || time.Since(start) < setupMin; k++ {
		if k > 0 {
			if err := os.RemoveAll(filepath.Join(runDir, fmt.Sprint(k-1))); err != nil {
				return nil, 0, err
			}
		}
		t0 := time.Now()
		s, err := w.setup(ctx, seed, filepath.Join(runDir, fmt.Sprint(k)))
		times = append(times, time.Since(t0).Seconds())
		if err != nil {
			return nil, 0, err
		}
		set = s
	}
	return set, median(times), nil
}

// harness runs the passes of one workload and keeps the warm-up pass's
// answers, which every later session must repeat.
type harness struct {
	w         *workload
	set       problemSet
	ref       []*reference // nil for problems whose warm-up session failed
	attempted int
	failed    int
	failures  []string
}

type reference struct {
	res    result
	judged judged
	key    string
}

// answerKey renders the exact part of a session's output.
func answerKey(res result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s|%d|%d", res.causes.Canonical(), res.spent, res.calls)
	for _, c := range res.baselines {
		fmt.Fprintf(&b, "|%s", c.Canonical())
	}
	return b.String()
}

func (h *harness) fail(i int, err error) {
	h.failed++
	if len(h.failures) < 10 {
		h.failures = append(h.failures, fmt.Sprintf("%s problem %d: %v", h.w.name, i, err))
	}
}

func (h *harness) warmUp(ctx context.Context) {
	h.ref = make([]*reference, h.set.size())
	for i := range h.ref {
		h.attempted++
		if err := h.set.prepare(i); err != nil {
			h.fail(i, err)
			continue
		}
		res, err := h.set.run(ctx, i, env{})
		if err != nil {
			h.fail(i, err)
			continue
		}
		j, err := h.set.check(i, res, env{}, true)
		if err != nil {
			h.fail(i, err)
			continue
		}
		res.store = nil
		h.ref[i] = &reference{res: res, judged: j, key: answerKey(res)}
	}
}

// samples are the timings of one measured phase.
type samples struct {
	wall       [][]time.Duration // per problem, one per pass
	total      time.Duration     // summed session wall time
	sessions   int
	allocBytes uint64
	passes     int
	roots      []int // root span ids of the successful sessions of a traced phase
}

// measure makes the given number of timed passes over the whole problem set,
// fewer only when the next pass, as long as the last, would end after the
// deadline (and never fewer than minPasses). Sessions run under the pprof
// label phase=session, which goroutines they start inherit, so that the CPU
// profile of a traced pass can keep the sessions' own samples and leave out
// the harness's untimed work and the forced collections between sessions
// (the runtime's background GC workers carry no labels).
func (h *harness) measure(ctx context.Context, passes int, deadline time.Time, e env) *samples {
	n := h.set.size()
	s := &samples{wall: make([][]time.Duration, n)}
	var m0, m1 runtime.MemStats
	for pass := time.Duration(0); s.passes < passes; s.passes++ {
		if s.passes >= minPasses && time.Now().Add(pass).After(deadline) {
			break
		}
		passStart := time.Now()
		for i := 0; i < n; i++ {
			if h.ref[i] == nil {
				continue
			}
			h.attempted++
			if err := h.set.prepare(i); err != nil {
				h.fail(i, err)
				continue
			}
			runtime.GC()
			runtime.ReadMemStats(&m0)
			root := e.tr.startSession(h.attempted)
			var res result
			var err error
			t0 := time.Now()
			pprof.Do(ctx, pprof.Labels("phase", "session"), func(ctx context.Context) {
				res, err = h.set.run(ctx, i, e)
			})
			wall := time.Since(t0)
			e.tr.end(root)
			runtime.ReadMemStats(&m1)
			if err == nil {
				err = h.verify(i, res, e)
			}
			if err != nil {
				h.fail(i, err)
				continue
			}
			s.wall[i] = append(s.wall[i], wall)
			s.total += wall
			s.sessions++
			s.allocBytes += m1.TotalAlloc - m0.TotalAlloc
			if e.tr != nil {
				s.roots = append(s.roots, root)
			}
		}
		pass = time.Since(passStart)
	}
	return s
}

// verify checks a timed session against the planted truth and against the
// warm-up pass: the same causes, spend, oracle calls and judgements.
func (h *harness) verify(i int, res result, e env) error {
	j, err := h.set.check(i, res, e, false)
	if err != nil {
		return err
	}
	ref := h.ref[i]
	if key := answerKey(res); key != ref.key {
		return fmt.Errorf("answer differs from the warm-up pass:\n got  %s\n want %s", key, ref.key)
	}
	if j.eval != ref.judged.eval {
		return fmt.Errorf("judgement differs from the warm-up pass: %+v vs %+v", j.eval, ref.judged.eval)
	}
	return nil
}

// perProblemMedians returns each problem's median sample, in ms.
func perProblemMedians(per [][]time.Duration) []float64 {
	var meds []float64
	for _, xs := range per {
		if len(xs) == 0 {
			continue
		}
		ms := make([]float64, len(xs))
		for k, x := range xs {
			ms[k] = float64(x) / float64(time.Millisecond)
		}
		meds = append(meds, median(ms))
	}
	return meds
}

// endToEnd fills the end-to-end metrics from an untraced phase and the
// warm-up pass's judged answers.
func (h *harness) endToEnd(s *samples, setupS float64, m map[string]metric) {
	meds := perProblemMedians(s.wall)
	_, tail, _ := s.tail()
	m["session_ms_p50"] = metric{median(meds), "ms"}
	m["session_ms_tail"] = metric{tail, "ms"}
	m["setup_s"] = metric{setupS, "s"}
	m["alloc_mb_per_session"] = metric{float64(s.allocBytes) / float64(s.sessions) / (1 << 20), "MiB"}

	var agg metrics.Aggregate
	var baselines []metrics.Aggregate
	spent, found := 0, 0
	for _, ref := range h.ref {
		if ref == nil {
			continue
		}
		agg.Add(ref.judged.eval)
		spent += ref.res.spent
		if h.w.findAll {
			found += ref.judged.eval.MatchedActual
		} else {
			found += ref.judged.eval.TrueAsserted
		}
		for k, ev := range ref.judged.baselines {
			if k == len(baselines) {
				baselines = append(baselines, metrics.Aggregate{})
			}
			baselines[k].Add(ev)
		}
	}
	m["execs_per_cause"] = metric{float64(spent) / float64(max(found, 1)), "execs/cause"}
	if h.w.findAll {
		m["precision"] = metric{agg.FindAllPrecision(), "ratio"}
		m["recall"] = metric{agg.FindAllRecall(), "ratio"}
	} else {
		m["precision"] = metric{agg.FindOnePrecision(), "ratio"}
		m["recall"] = metric{agg.FindOneRecall(), "ratio"}
	}
	f := 0.0
	for _, b := range baselines {
		f += b.FindAllF() / float64(len(baselines))
	}
	m["baseline_f"] = metric{f, "ratio"}
}

// minTailProblems is the fewest problems whose medians the tail is taken
// over; a workload with fewer takes it over all its timed sessions.
const minTailProblems = 20

// tail returns session_ms_tail: the highest listed percentile with at
// least ten samples beyond it, and what it was taken over.
func (s *samples) tail() (pct, ms float64, over string) {
	meds := perProblemMedians(s.wall)
	if len(meds) >= minTailProblems {
		pct, ms = tailPercentile(meds)
		return pct, ms, fmt.Sprintf("%d per-problem medians", len(meds))
	}
	var all []float64
	for _, xs := range s.wall {
		for _, x := range xs {
			all = append(all, float64(x)/float64(time.Millisecond))
		}
	}
	pct, ms = tailPercentile(all)
	return pct, ms, fmt.Sprintf("%d timed sessions", len(all))
}

// describe prints what the tail percentile and the sample counts are.
func (h *harness) describe(w io.Writer, s *samples, passes int) {
	pct, _, over := s.tail()
	fmt.Fprintf(w, "workload %s: %d problems, %d of %d timed passes, %d timed sessions, %.2f s timed\n",
		h.w.name, h.set.size(), s.passes, passes, s.sessions, s.total.Seconds())
	if s.passes < passes {
		fmt.Fprintf(w, "stopped after %d passes to end within %v\n", s.passes, runLimit)
	}
	fmt.Fprintf(w, "session_ms_tail is the p%g of %s\n", pct, over)
	slow, slowMs := -1, 0.0
	for i, xs := range s.wall {
		if len(xs) > 0 {
			if ms := perProblemMedians(s.wall[i : i+1])[0]; ms > slowMs {
				slow, slowMs = i, ms
			}
		}
	}
	fmt.Fprintf(w, "slowest problem: %d, median %.3f ms\n", slow, slowMs)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
