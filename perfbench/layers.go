package main

import (
	"fmt"
	"runtime"
	"time"

	"repro/internal/telemetry"
)

// layerMetric is one per-layer metric of the traced run and the end-to-end
// metric it should move, on which workload.
type layerMetric struct {
	Name     string `json:"name"`
	Unit     string `json:"unit"`
	Moves    string `json:"moves"`
	Workload string `json:"workload"`
}

// Span metrics of layers that only some workloads reach are shares of
// session wall time rather than milliseconds, so that a layer a workload
// bypasses reads 0 as a share, not as a constant time.
var layerMetrics = []layerMetric{
	{"oracle.calls", "count", "execs_per_cause", "all"},
	{"oracle.busy_ms", "ms", "execs_per_cause, session_ms_*", "all"},
	{"core.search_ms", "ms", "session_ms_*", "ddt-findall"},
	{"core.self_ms", "ms", "session_ms_*", "ddt-findall"},
	{"metrics.judge_ms", "ms", "session_ms_*", "paper-compare"},
	{"smac.run_share", "share", "session_ms_*", "paper-compare"},
	{"dataxray.diagnose_share", "share", "session_ms_*", "paper-compare"},
	{"exptables.explain_share", "share", "session_ms_*", "paper-compare"},
	{"provlog.resume_share", "share", "session_ms_*", "durable-resume"},
	{"provlog.checkpoint_share", "share", "session_ms_*", "durable-resume"},
	{"provlog.close_share", "share", "session_ms_*", "durable-resume"},
	{"exec.memo_hits", "count", "execs_per_cause", "all"},
	{"exec.memo_misses", "count", "execs_per_cause", "all"},
	{"exec.memo_hit_ratio", "ratio", "execs_per_cause", "all"},
	{"exec.dedup_drops", "count", "execs_per_cause", "all"},
	{"core.tree_regrows", "count", "session_ms_*", "ddt-findall"},
	{"core.decisions", "count", "session_ms_*", "ddt-findall"},
	{"provenance.epoch_refreshes", "count", "session_ms_*", "durable-resume"},
	{"provenance.index_builds", "count", "session_ms_*", "durable-resume"},
	{"provenance.index_build_share", "share", "session_ms_*", "durable-resume"},
	{"provlog.flushes", "count", "session_ms_*", "durable-resume"},
	{"provlog.commit_window_recs", "count", "session_ms_*", "durable-resume"},
	{"provlog.fsync_share", "share", "session_ms_*", "durable-resume"},
	{"provlog.bytes_appended", "bytes", "session_ms_*", "durable-resume"},
	{"provlog.checkpoint_bytes", "bytes", "session_ms_*", "durable-resume"},
	{"cpu.dtree", "share", "session_ms_*", "ddt-findall"},
	{"cpu.forest", "share", "session_ms_*", "paper-compare"},
	{"cpu.smac", "share", "session_ms_*", "paper-compare"},
	{"cpu.core", "share", "session_ms_*", "ddt-findall"},
	{"cpu.predicate", "share", "session_ms_*", "all"},
	{"cpu.qmc", "share", "session_ms_*", "all"},
	{"cpu.pipeline", "share", "session_ms_*", "ddt-findall"},
	{"cpu.provenance", "share", "session_ms_*", "durable-resume"},
	{"cpu.provlog", "share", "session_ms_*", "durable-resume"},
	{"cpu.exec", "share", "session_ms_*", "all"},
	{"cpu.dataxray", "share", "session_ms_*", "paper-compare"},
	{"cpu.exptables", "share", "session_ms_*", "paper-compare"},
	{"cpu.metrics", "share", "session_ms_*", "paper-compare"},
	{"cpu.synth", "share", "session_ms_*", "all"},
	{"cpu.gc", "share", "alloc_mb_per_session", "all"},
	{"cpu.other", "share", "session_ms_*", "all"},
	{"cpu_cum.dtree", "share", "session_ms_*", "ddt-findall"},
	{"cpu_cum.forest", "share", "session_ms_*", "paper-compare"},
	{"cpu_cum.smac", "share", "session_ms_*", "paper-compare"},
	{"cpu_cum.provenance", "share", "session_ms_*", "durable-resume"},
	{"cpu_cum.provlog", "share", "session_ms_*", "durable-resume"},
	{"trace_overhead", "ratio", "session_ms_p50", "all"},
}

// traceOut is the traced run's record, written beside the build output.
type traceOut struct {
	Workload  string             `json:"workload"`
	Sessions  int                `json:"sessions"`
	Layers    []layerMetric      `json:"layers"`
	Values    map[string]float64 `json:"values"`
	FsyncP50  float64            `json:"provlog_fsync_ms_p50"`
	Checks    []string           `json:"checks"`
	Telemetry telemetry.Snapshot `json:"telemetry"`
	Spans     []span             `json:"spans"`
}

// perLayer derives the per-layer metrics from the traced phase (spans,
// telemetry, CPU profile) and the untraced phase beside it, and checks the
// spans and the profile against measurements taken apart from them.
func (h *harness) perLayer(plain, traced *samples, spans []span, snap telemetry.Snapshot,
	prof []byte, m map[string]metric) (*traceOut, error) {
	if traced.sessions == 0 || plain.sessions == 0 {
		return nil, fmt.Errorf("no successful sessions to attribute")
	}
	n := float64(traced.sessions)
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) / n }
	share := func(d time.Duration) float64 { return float64(d) / float64(traced.total) }
	out := &traceOut{Workload: h.w.name, Sessions: traced.sessions, Layers: layerMetrics,
		Values: map[string]float64{}, Telemetry: snap, Spans: spans}
	v := out.Values

	sum, self := spanTotals(spans)
	v["oracle.calls"] = float64(countSpans(spans, "oracle")) / n
	v["oracle.busy_ms"] = ms(sum["oracle"])
	v["core.search_ms"] = ms(sum["core.search"])
	v["core.self_ms"] = ms(self["core.search"])
	v["metrics.judge_ms"] = ms(sum["metrics.judge"])
	for _, s := range []string{"smac.run", "dataxray.diagnose", "exptables.explain",
		"provlog.resume", "provlog.checkpoint", "provlog.close"} {
		v[s+"_share"] = share(sum[s])
	}

	c := func(name string) float64 { return float64(snap.Counters[name]) / n }
	v["exec.memo_hits"] = c("exec_memo_hits")
	v["exec.memo_misses"] = c("exec_memo_misses")
	if lookups := snap.Counters["exec_memo_hits"] + snap.Counters["exec_memo_misses"]; lookups > 0 {
		v["exec.memo_hit_ratio"] = float64(snap.Counters["exec_memo_hits"]) / float64(lookups)
	} else {
		v["exec.memo_hit_ratio"] = 0
	}
	v["exec.dedup_drops"] = c("exec_dedup_drops")
	v["core.tree_regrows"] = c("driver_tree_regrows")
	v["core.decisions"] = c("driver_decisions")
	v["provenance.epoch_refreshes"] = c("provenance_epoch_refreshes")
	builds := snap.Histograms["provenance_index_build_ns"]
	v["provenance.index_builds"] = float64(builds.Count) / n
	v["provenance.index_build_share"] = share(time.Duration(builds.Sum))
	v["provlog.flushes"] = c("provlog_flushes")
	v["provlog.commit_window_recs"] = 0
	if win := snap.Histograms["provlog_commit_window_recs"]; win.Count > 0 {
		v["provlog.commit_window_recs"] = float64(win.Sum) / float64(win.Count)
	}
	fsync := snap.Histograms["provlog_fsync_ns"]
	v["provlog.fsync_share"] = share(time.Duration(fsync.Sum))
	out.FsyncP50 = float64(fsync.Quantile(0.5)) / float64(time.Millisecond)
	v["provlog.bytes_appended"] = c("provlog_bytes_appended")
	v["provlog.checkpoint_bytes"] = c("provlog_checkpoint_bytes")

	p, err := parseCPUProfile(prof)
	if err != nil {
		return nil, err
	}
	cpuSelf, cpuCum, total := cpuShares(p, func(l map[string]string) bool { return l["phase"] == "session" })
	for l, x := range cpuSelf {
		v["cpu."+l] = x
	}
	for l, x := range cpuCum {
		v["cpu_cum."+l] = x
	}
	v["trace_overhead"] = median(perProblemMedians(traced.wall)) / median(perProblemMedians(plain.wall))

	if err := checkSpans(out, spans, sum["oracle"], traced, snap); err != nil {
		return nil, err
	}
	if err := checkProfile(out, p, total, traced); err != nil {
		return nil, err
	}
	for _, lm := range layerMetrics {
		x, ok := v[lm.Name]
		if !ok {
			return nil, fmt.Errorf("per-layer metric %s was not measured", lm.Name)
		}
		m[lm.Name] = metric{x, lm.Unit}
	}
	return out, nil
}

func countSpans(spans []span, name string) int {
	k := 0
	for _, s := range spans {
		if s.Name == name {
			k++
		}
	}
	return k
}

// checkSpans holds the traced spans against measurements taken apart from
// them and records what it compared in out.Checks.
//
// The oracle spans against the executor's exec_oracle_latency_ns
// histogram: every oracle call goes through an executor, which times the
// call around the span, so the counts are equal and the span total cannot
// exceed the histogram's sum. A missed or doubled oracle span, or one that
// measures the wrong interval, breaks one or the other.
//
// The root session spans against the harness's own session clock: each
// root span encloses the timed session, so their total is at least the
// summed session wall time, and exceeds it only by the cost of starting and
// ending a span (bounded by rootSlack per session).
func checkSpans(out *traceOut, spans []span, oracle time.Duration, traced *samples, snap telemetry.Snapshot) error {
	lat := snap.Histograms["exec_oracle_latency_ns"]
	calls := countSpans(spans, "oracle")
	if int64(calls) != lat.Count {
		return fmt.Errorf("%d oracle spans, but the executors timed %d oracle calls", calls, lat.Count)
	}
	if oracle > time.Duration(lat.Sum) {
		return fmt.Errorf("oracle spans total %v, more than the executors' %v for the same calls",
			oracle, time.Duration(lat.Sum))
	}
	out.Checks = append(out.Checks, fmt.Sprintf("%d oracle spans totalling %v inside %d executor-timed calls totalling %v",
		calls, oracle, lat.Count, time.Duration(lat.Sum)))

	var root time.Duration
	for _, id := range traced.roots {
		if spans[id].Name != "session" {
			return fmt.Errorf("span %d is %q, not a session root", id, spans[id].Name)
		}
		root += time.Duration(spans[id].EndNs - spans[id].StartNs)
	}
	if limit := traced.total + time.Duration(len(traced.roots))*rootSlack; root < traced.total || root > limit {
		return fmt.Errorf("%d session spans total %v; the harness timed %v (at most %v allowed)",
			len(traced.roots), root, traced.total, limit)
	}
	out.Checks = append(out.Checks, fmt.Sprintf("%d session spans total %v for %v of timed sessions",
		len(traced.roots), root, traced.total))
	return nil
}

// rootSlack is the most a root session span may exceed the session's timed
// wall time: the cost of opening and closing the span.
const rootSlack = 50 * time.Microsecond

// checkProfile holds the decoded CPU profile against the traced session
// time: total session samples at the profile's period is the sessions' CPU
// time, which cannot exceed GOMAXPROCS times their wall time and, for
// sessions that compute rather than wait, is at least minCPUShare of it. A
// wrong period, a misread sample value or lost labels break these bounds.
func checkProfile(out *traceOut, p *cpuProfile, samples int64, traced *samples) error {
	if p.period <= 0 {
		return fmt.Errorf("the CPU profile has period %d", p.period)
	}
	cpu := time.Duration(samples * p.period)
	share := float64(cpu) / float64(traced.total)
	procs := float64(runtime.GOMAXPROCS(0))
	if share < minCPUShare || share > procs*1.05 {
		return fmt.Errorf("%d session samples at %v are %v of CPU for %v of sessions (share %.3f, want %.2f to %.2f)",
			samples, time.Duration(p.period), cpu, traced.total, share, minCPUShare, procs*1.05)
	}
	out.Checks = append(out.Checks, fmt.Sprintf("%d session samples at %v: %v of CPU for %v of sessions (share %.3f)",
		samples, time.Duration(p.period), cpu, traced.total, share))
	return nil
}

// minCPUShare is the least CPU time per second of session wall time the
// profile must show; every workload's sessions mostly compute.
const minCPUShare = 0.3
