package main

import (
	"fmt"
	"os"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"

	"wanshuffle/internal/livecluster"
	"wanshuffle/internal/obs"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/trace"
)

// runtimeSnap is the process-wide runtime state read around one job.
type runtimeSnap struct {
	allocBytes, allocs uint64
	gcCycles           uint32
	gcCPU              float64
}

const gcCPUMetric = "/cpu/classes/gc/total:cpu-seconds"

// readRuntime reads allocation and GC counters; it stops the world
// briefly, so callers keep it outside timed spans.
func readRuntime() runtimeSnap {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	s := []metrics.Sample{{Name: gcCPUMetric}}
	metrics.Read(s)
	var gc float64
	if s[0].Value.Kind() == metrics.KindFloat64 {
		gc = s[0].Value.Float64()
	}
	return runtimeSnap{allocBytes: ms.TotalAlloc, allocs: ms.Mallocs, gcCycles: ms.NumGC, gcCPU: gc}
}

// addRuntime records the runtime deltas between two snapshots.
func addRuntime(s samples, before, after runtimeSnap) {
	s.add("alloc_bytes_per_job", float64(after.allocBytes-before.allocBytes))
	s.add("allocs_per_job", float64(after.allocs-before.allocs))
	s.add("go.gc_cycles", float64(after.gcCycles-before.gcCycles))
	s.add("go.gc_cpu_s", after.gcCPU-before.gcCPU)
}

// liveCluster is one started cluster and the trace recorder it runs with
// (nil when untraced).
type liveCluster struct {
	*livecluster.Cluster
	rec *trace.SyncRecorder
	// traces holds the trace IDs of jobs already accounted for, so each
	// job's spans can be told apart in the cumulative recorder.
	traces map[trace.TraceID]bool
}

// startCluster starts a 4-worker cluster for wl and runs one untimed,
// checked warm-up job on it, returning the cluster and the seconds both
// took.
func startCluster(wl *liveWorkload, traced bool) (*liveCluster, float64, error) {
	t0 := time.Now()
	cfg := livecluster.Config{Workers: 4, Mode: wl.mode}
	if wl.budget > 0 {
		if err := os.MkdirAll(wl.spillDir, 0o755); err != nil {
			return nil, 0, fmt.Errorf("creating spill dir: %w", err)
		}
		cfg.MemoryBudget = wl.budget
		cfg.SpillDir = wl.spillDir
	}
	lc := &liveCluster{traces: map[trace.TraceID]bool{}}
	if traced {
		lc.rec = &trace.SyncRecorder{}
		cfg.Trace = lc.rec
	}
	cl, err := livecluster.New(cfg)
	if err != nil {
		return nil, 0, fmt.Errorf("starting cluster: %w", err)
	}
	lc.Cluster = cl
	out, _, err := cl.Run(wl.lineage())
	if err == nil {
		err = wl.check(out)
	}
	if err != nil {
		cl.Close()
		return nil, 0, fmt.Errorf("warm-up job: %w", err)
	}
	lc.jobSpans() // the warm-up's spans are not a measured job's
	return lc, time.Since(t0).Seconds(), nil
}

// jobSpans returns the spans of the jobs that finished since the last
// call.
func (lc *liveCluster) jobSpans() []trace.Span {
	var out []trace.Span
	fresh := map[trace.TraceID]bool{}
	for _, sp := range lc.rec.Spans() {
		if !lc.traces[sp.Trace] {
			out = append(out, sp)
			fresh[sp.Trace] = true
		}
	}
	for id := range fresh {
		lc.traces[id] = true
	}
	return out
}

// liveJob is one measured job's outcome.
type liveJob struct {
	sec   float64
	stats *livecluster.Stats
	err   error
}

// runJob runs one job of wl on lc and checks its output; everything but
// the Run call itself stays outside the timed span. Runtime and storage
// deltas land in s.
func runJob(wl *liveWorkload, lc *liveCluster, s samples, corrupt bool) liveJob {
	target := wl.lineage()
	runtime.GC()
	store0 := lc.StorageStats()
	rt0 := readRuntime()
	t0 := time.Now()
	out, st, err := lc.Run(target)
	sec := time.Since(t0).Seconds()
	rt1 := readRuntime()
	if err != nil {
		return liveJob{err: err}
	}
	if corrupt && len(out) > 0 {
		out = append([]rdd.Pair(nil), out[1:]...)
	}
	if err := wl.check(out); err != nil {
		return liveJob{err: err}
	}
	addRuntime(s, rt0, rt1)
	store1 := lc.StorageStats()
	s.add("blockstore.spill_events", float64(store1.SpillEvents-store0.SpillEvents))
	s.add("blockstore.spilled_bytes", float64(store1.SpilledBytesTotal-store0.SpilledBytesTotal))
	s.add("blockstore.reload_bytes", float64(store1.ReloadBytesTotal-store0.ReloadBytesTotal))
	return liveJob{sec: sec, stats: st}
}

// runLive measures one live workload. Untraced, it sets up opts.setups
// clusters (reporting the median set-up time), keeps the last, and runs a
// closed loop of jobs on it. Traced, it alternates jobs between an
// untraced and a traced cluster, so the per-layer numbers and the tracing
// overhead come from the same stretch of time, then times direct calls
// into the rdd, blockstore and obs layers.
func runLive(opts options, wl *liveWorkload) (*measurement, error) {
	m := newMeasurement()
	s := samples{}
	if !opts.trace {
		var lc *liveCluster
		for i := 0; i < opts.setups; i++ {
			if lc != nil {
				lc.Close()
			}
			var sec float64
			var err error
			if lc, sec, err = startCluster(wl, false); err != nil {
				return nil, err
			}
			s.add("setup_s", sec)
		}
		defer lc.Close()
		start := time.Now()
		for !deadline(opts, start, m.attempted) {
			m.attempted++
			job := runJob(wl, lc, s, m.attempted == opts.corruptJob)
			if job.err != nil {
				m.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s job %d: %v\n", wl.name, m.attempted, job.err)
				continue
			}
			s.add("job_s", job.sec)
			s.add("report_jct_s", job.stats.CompletionSec)
			s.add("report_bytes_per_job", float64(job.stats.BytesOverTCP))
		}
		m.values["records_per_s"] = ratio(float64(wl.records), s.median("job_s"))
		m.values["success_ratio"] = ratio(float64(m.attempted-m.failed), float64(m.attempted))
		s.finish(m)
		return m, nil
	}

	plain, _, err := startCluster(wl, false)
	if err != nil {
		return nil, err
	}
	defer plain.Close()
	traced, _, err := startCluster(wl, true)
	if err != nil {
		return nil, err
	}
	defer traced.Close()
	tracedSec := samples{}
	start := time.Now()
	for pairs := 0; !deadline(opts, start, pairs); pairs++ {
		for _, lc := range []*liveCluster{plain, traced} {
			m.attempted++
			into := s
			if lc == traced {
				into = tracedSec
			}
			job := runJob(wl, lc, into, m.attempted == opts.corruptJob)
			if job.err != nil {
				m.failed++
				fmt.Fprintf(os.Stderr, "perfbench: %s job %d: %v\n", wl.name, m.attempted, job.err)
				if lc == traced {
					lc.jobSpans() // drop the failed job's spans
				}
				continue
			}
			if lc == traced {
				tracedSec.add("job_s", job.sec)
				addSpanMetrics(s, wl.name, job.stats, lc.jobSpans())
				continue
			}
			s.add("untraced_job_s", job.sec)
			addStatsMetrics(s, job.stats)
		}
	}
	m.values["trace.overhead_s"] = tracedSec.median("job_s") - s.median("untraced_job_s")
	if err := measureLayers(opts, m.spans, s, func() []*rdd.RDD { return []*rdd.RDD{wl.lineage()} }, true, wl.budget, wl.spillDir); err != nil {
		return nil, err
	}
	unusedLayers(m, "exec.", "simnet.")
	s.finish(m)
	return m, nil
}

// addStatsMetrics records one untraced job's livecluster and plan layer
// numbers from the stats the cluster returned.
func addStatsMetrics(s samples, st *livecluster.Stats) {
	s.add("livecluster.wire_bytes", float64(st.BytesOverTCP))
	s.add("livecluster.raw_bytes", float64(st.BytesRaw))
	s.add("livecluster.push_requests", float64(st.PushConnections))
	s.add("livecluster.fetch_requests", float64(st.FetchConnections))
	s.add("livecluster.sample_requests", float64(st.SampleRequests))
	s.add("livecluster.dials", float64(st.Dials))
	s.add("obs.series", float64(len(st.Events.Registry().Snapshot())))
	addPlanMetrics(s, st.Events.TaskEvents(), st.StageSpans)
}

// addPlanMetrics records the planner's task and stage numbers for one
// job: finished tasks, retries, time from scheduling (or a retry) to
// start, time from start to finish or failure, and stage windows split
// into map stages and the result stage.
func addPlanMetrics(s samples, events []obs.TaskEvent, stages []obs.StageEvent) {
	type attemptKey struct{ stage, part, attempt int }
	ready := map[attemptKey]float64{}
	started := map[attemptKey]float64{}
	var tasks, retries int
	var wait, busy float64
	for _, ev := range events {
		k := attemptKey{ev.Stage, ev.Part, ev.Attempt}
		switch ev.Phase {
		case obs.PhaseScheduled, obs.PhaseRetried:
			ready[k] = ev.Time
			if ev.Phase == obs.PhaseRetried {
				retries++
			}
		case obs.PhaseStarted:
			started[k] = ev.Time
			if t, ok := ready[k]; ok {
				wait += ev.Time - t
			}
		case obs.PhaseFinished, obs.PhaseFailed:
			if t, ok := started[k]; ok {
				busy += ev.Time - t
			}
			if ev.Phase == obs.PhaseFinished {
				tasks++
			}
		}
	}
	var mapSec, reduceSec float64
	for _, st := range stages {
		if strings.Contains(st.Name, "(result:") {
			reduceSec += st.End - st.Start
		} else {
			mapSec += st.End - st.Start
		}
	}
	s.add("plan.tasks", float64(tasks))
	s.add("plan.task_retries", float64(retries))
	s.add("plan.task_wait_s", wait)
	s.add("plan.task_busy_s", busy)
	s.add("plan.map_stage_s", mapSec)
	s.add("plan.reduce_stage_s", reduceSec)
}

// busyKinds maps span kinds to the livecluster busy-time metrics.
var busyKinds = map[trace.Kind]string{
	trace.KindMap:     "livecluster.map_busy_s",
	trace.KindPush:    "livecluster.push_busy_s",
	trace.KindReceive: "livecluster.receive_busy_s",
	trace.KindFetch:   "livecluster.fetch_busy_s",
	trace.KindServe:   "livecluster.serve_busy_s",
	trace.KindReduce:  "livecluster.reduce_busy_s",
}

// addSpanMetrics records one traced job's busy time per span kind and its
// critical-path split, from the job's own spans.
func addSpanMetrics(s samples, workload string, st *livecluster.Stats, spans []trace.Span) {
	busy := map[string]float64{}
	for _, name := range busyKinds {
		busy[name] = 0
	}
	rec := &trace.SyncRecorder{}
	for _, sp := range spans {
		rec.Add(sp)
		if name, ok := busyKinds[sp.Kind]; ok {
			busy[name] += sp.End - sp.Start
		}
	}
	for name, v := range busy {
		s.add(name, v)
	}
	addCriticalPath(s, st.RunReport(workload, rec))
}

// addCriticalPath records a run report's critical-path split.
func addCriticalPath(s samples, rep *obs.Report) {
	var compute, transfer, wait float64
	if cp := rep.CriticalPath; cp != nil {
		compute, transfer, wait = cp.ComputeSec, cp.TransferSec, cp.WaitSec
	}
	s.add("trace.critical_compute_s", compute)
	s.add("trace.critical_transfer_s", transfer)
	s.add("trace.critical_wait_s", wait)
}
