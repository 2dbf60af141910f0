// Command perfbench is the repository benchmark. It runs one workload as a
// closed loop — one client keeps one job in flight, starting the next only
// after the previous one returned and its output was checked — for a fixed
// wall-clock budget, and prints every metric by name with its unit.
//
//	bash perfbench/run.sh --workload live-wc-push --seed 1 --seconds 15 --trace 0
//
// With --trace 0 the run measures the end-to-end metrics with tracing off.
// With --trace 1 a separate, traced run measures the per-layer metrics:
// span sums from the live cluster's recorder, per-job deltas of the stats
// each layer returns, and timings of direct calls into the rdd, blockstore
// and obs layers on the workload's own records. README.md lists every
// metric and the end-to-end metric each layer metric should move.
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": 21, "failed": 0, "metrics": {"job_s": {"value": 0.71, "unit": "s"}, ...}}
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	name, unit string
}

// endToEnd are the metrics a user of the system sees. Every workload
// reports all of them with --trace 0; each is nonzero on every workload.
var endToEnd = []metricDef{
	{"job_s", "s"},
	{"records_per_s", "1/s"},
	{"alloc_bytes_per_job", "bytes"},
	{"allocs_per_job", "count"},
	{"report_jct_s", "s"},
	{"report_bytes_per_job", "bytes"},
	{"success_ratio", "ratio"},
	{"setup_s", "s"},
}

// perLayer are the single-layer metrics of the traced run. Every workload
// reports all of them; a metric of a layer the workload does not use
// reads 0.
var perLayer = []metricDef{
	{"rdd.map_side_prepare_s", "s"},
	{"rdd.map_side_prepare_allocs", "count"},
	{"rdd.combine_ratio", "ratio"},
	{"rdd.bucket_s", "s"},
	{"rdd.reduce_aggregate_s", "s"},
	{"rdd.reduce_aggregate_allocs", "count"},
	{"rdd.eval_local_s", "s"},
	{"livecluster.wire_bytes", "bytes"},
	{"livecluster.raw_bytes", "bytes"},
	{"livecluster.push_requests", "count"},
	{"livecluster.fetch_requests", "count"},
	{"livecluster.sample_requests", "count"},
	{"livecluster.dials", "count"},
	{"livecluster.map_busy_s", "s"},
	{"livecluster.push_busy_s", "s"},
	{"livecluster.receive_busy_s", "s"},
	{"livecluster.fetch_busy_s", "s"},
	{"livecluster.serve_busy_s", "s"},
	{"livecluster.reduce_busy_s", "s"},
	{"blockstore.spill_events", "count"},
	{"blockstore.spilled_bytes", "bytes"},
	{"blockstore.reload_bytes", "bytes"},
	{"blockstore.put_s", "s"},
	{"blockstore.shards_s", "s"},
	{"plan.tasks", "count"},
	{"plan.task_retries", "count"},
	{"plan.task_wait_s", "s"},
	{"plan.task_busy_s", "s"},
	{"plan.map_stage_s", "s"},
	{"plan.reduce_stage_s", "s"},
	{"trace.critical_compute_s", "s"},
	{"trace.critical_transfer_s", "s"},
	{"trace.critical_wait_s", "s"},
	{"trace.overhead_s", "s"},
	{"exec.save_s.spark", "s"},
	{"exec.save_s.centralized", "s"},
	{"exec.save_s.agg", "s"},
	{"exec.task_attempts", "count"},
	{"simnet.flows_completed", "count"},
	{"simnet.flows_per_s", "1/s"},
	{"obs.counter_lookup_ns", "ns"},
	{"obs.counter_add_ns", "ns"},
	{"obs.series", "count"},
	{"go.gc_cpu_s", "s"},
	{"go.gc_cycles", "count"},
}

// options configure one benchmark run.
type options struct {
	workload string
	seed     int64
	// seconds is the wall-clock budget of the measured loop.
	seconds float64
	trace   bool
	// workdir holds spill files and the span dump; created if missing.
	workdir string
	// minJobs is the fewest measured jobs a run makes, however long they
	// take.
	minJobs int
	// setups is how many times --trace 0 sets up, reporting the median.
	setups int
	// layerReps is how many times the direct layer calls are repeated.
	layerReps int
	sizes     sizes
	// corruptJob, when positive, corrupts the output of that measured job
	// (1-based) before its check, so tests can see failures counted.
	corruptJob int
}

// metric is one reported value.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// workloadNames lists the workloads in the order BENCHMARK.json names them.
var workloadNames = []string{"live-wc-push", "live-sort-fetch-spill", "sim-fig7"}

func main() {
	opts := options{minJobs: 3, setups: 3, layerReps: 3, sizes: defaultSizes()}
	var traceFlag int
	flag.StringVar(&opts.workload, "workload", "", fmt.Sprintf("workload to run: %v", workloadNames))
	flag.Int64Var(&opts.seed, "seed", 1, "input generator seed")
	flag.Float64Var(&opts.seconds, "seconds", 15, "measured wall-clock seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics, traced")
	flag.StringVar(&opts.workdir, "workdir", ".bench_build/work", "directory for spill files and the span dump")
	flag.Parse()
	if traceFlag != 0 && traceFlag != 1 {
		fatalf("--trace must be 0 or 1, got %d", traceFlag)
	}
	opts.trace = traceFlag == 1
	if opts.seconds <= 0 {
		fatalf("--seconds must be positive, got %v", opts.seconds)
	}

	res, err := run(opts)
	if err != nil {
		fatalf("%v", err)
	}
	out, err := json.Marshal(res)
	if err != nil {
		fatalf("encoding result: %v", err)
	}
	fmt.Println(string(out))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// run executes one workload and assembles its result. It prints a line
// recording the environment and the raw sample counts before returning.
func run(opts options) (*result, error) {
	if err := os.MkdirAll(opts.workdir, 0o755); err != nil {
		return nil, fmt.Errorf("creating workdir: %w", err)
	}
	var (
		m   *measurement
		err error
	)
	switch opts.workload {
	case "live-wc-push":
		m, err = runLive(opts, newWordCount(opts.seed, opts.sizes))
	case "live-sort-fetch-spill":
		m, err = runLive(opts, newSort(opts.seed, opts.sizes, filepath.Join(opts.workdir, "spill")))
	case "sim-fig7":
		m, err = runSim(opts)
	default:
		return nil, fmt.Errorf("unknown workload %q (want one of %v)", opts.workload, workloadNames)
	}
	if err != nil {
		return nil, fmt.Errorf("%s: %w", opts.workload, err)
	}
	defs := endToEnd
	if opts.trace {
		defs = perLayer
		if err := m.spans.dump(filepath.Join(opts.workdir, opts.workload+"-spans.json")); err != nil {
			return nil, err
		}
	}
	res := &result{
		Correct:   m.failed == 0,
		Attempted: m.attempted,
		Failed:    m.failed,
		Metrics:   make(map[string]metric, len(defs)),
	}
	for _, d := range defs {
		v, ok := m.values[d.name]
		if !ok && m.failed == 0 {
			return nil, fmt.Errorf("%s: metric %s was not measured", opts.workload, d.name)
		}
		// Missing only because every job it is taken from failed: the
		// result already says so, and 0 stands in for the value.
		res.Metrics[d.name] = metric{Value: v, Unit: d.unit}
	}
	info, err := json.Marshal(map[string]any{
		"workload":   opts.workload,
		"seed":       opts.seed,
		"trace":      opts.trace,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"go":         runtime.Version(),
		"samples":    m.samples,
	})
	if err != nil {
		return nil, fmt.Errorf("encoding run info: %w", err)
	}
	fmt.Println(string(info))
	return res, nil
}

// measurement is what one workload run produced: job counts, the final
// metric values, and how many samples each median was taken over.
type measurement struct {
	attempted, failed int
	values            map[string]float64
	samples           map[string]int
	spans             *spanLog
}

func newMeasurement() *measurement {
	return &measurement{values: map[string]float64{}, samples: map[string]int{}, spans: &spanLog{}}
}

// samples accumulates per-job observations by metric name.
type samples map[string][]float64

func (s samples) add(name string, v float64) { s[name] = append(s[name], v) }

// median returns the median of name's observations, or 0 when there are
// none.
func (s samples) median(name string) float64 { return median(s[name]) }

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	c := append([]float64(nil), xs...)
	sort.Float64s(c)
	n := len(c)
	if n%2 == 1 {
		return c[n/2]
	}
	return (c[n/2-1] + c[n/2]) / 2
}

// finish folds per-job samples into measurement values: the median of each
// named series, plus every series' sample count.
func (s samples) finish(m *measurement) {
	for name, xs := range s {
		if _, set := m.values[name]; !set {
			m.values[name] = median(xs)
		}
		m.samples[name] = len(xs)
	}
}

// ratio is a/b, or 0 when b is 0 (every job failed, say), so a result
// never carries a value JSON cannot encode.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// unusedLayers reports 0 for every per-layer metric of the layers (by
// name prefix) the workload does not run through.
func unusedLayers(m *measurement, prefixes ...string) {
	for _, d := range perLayer {
		for _, p := range prefixes {
			if strings.HasPrefix(d.name, p) {
				m.values[d.name] = 0
			}
		}
	}
}

// deadline reports whether a closed loop that started at start should
// stop after done jobs.
func deadline(opts options, start time.Time, done int) bool {
	return done >= opts.minJobs && time.Since(start).Seconds() >= opts.seconds
}
