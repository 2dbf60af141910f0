package main

import (
	"fmt"
	"os"
	"runtime"
	"time"

	"wanshuffle/internal/bench"
	"wanshuffle/internal/core"
	"wanshuffle/internal/exec"
	"wanshuffle/internal/rdd"
	"wanshuffle/internal/simnet"
	"wanshuffle/internal/workloads"
)

// sweepResult is one pass over the paper's workloads under every scheme,
// summed over its cells.
type sweepResult struct {
	// sec is the wall time of the cells' Context.Save calls.
	sec float64
	// jct and crossDC are the modeled results (Fig. 7 and Fig. 8).
	jct, crossDC float64
	saveSec      map[core.Scheme]float64
	attempts     int
	flows        int
	series       int
	records      int
	allocBytes   uint64
	allocs       uint64
	gcCycles     uint32
	gcCPU        float64
	// critical sums the cells' critical-path split (traced sweeps only).
	critical [3]float64
}

// simWorkloads returns the workloads a sweep covers: the paper's five, or
// the named subset.
func simWorkloads(names []string) ([]*workloads.Workload, error) {
	if len(names) == 0 {
		return workloads.All(), nil
	}
	var out []*workloads.Workload
	for _, n := range names {
		w, err := workloads.ByName(n)
		if err != nil {
			return nil, err
		}
		out = append(out, w)
	}
	return out, nil
}

func newSimContext(seed int64, scheme core.Scheme, traced bool) *core.Context {
	return core.NewContext(core.Config{
		Seed:   seed,
		Scheme: scheme,
		Exec: exec.Config{
			Net:   simnet.Config{JitterAmplitude: 0.25},
			Trace: traced,
		},
	})
}

// inputRecords counts the leaf input records of a lineage graph.
func inputRecords(g *rdd.Graph) int {
	n := 0
	for _, r := range g.RDDs() {
		if len(r.Deps) == 0 {
			for _, p := range r.Input {
				n += len(p.Records)
			}
		}
	}
	return n
}

// sweep runs every (workload, scheme) cell at Table I scale: a fresh
// simulated cluster, the workload's lineage over inputs from the seed, and
// a timed Context.Save, whose output is then validated against the
// workload's in-memory reference. corrupt drops one output record of the
// first cell before validation.
func sweep(ws []*workloads.Workload, seed int64, traced, corrupt bool) (sweepResult, error) {
	res := sweepResult{saveSec: map[core.Scheme]float64{}}
	for _, w := range ws {
		for _, scheme := range bench.Schemes() {
			ctx := newSimContext(seed, scheme, traced)
			inst := w.Make(ctx, workloads.Options{Seed: seed})
			res.records += inputRecords(ctx.Graph())
			runtime.GC()
			rt0 := readRuntime()
			t0 := time.Now()
			rep, err := ctx.Save(inst.Target)
			sec := time.Since(t0).Seconds()
			rt1 := readRuntime()
			if err != nil {
				return res, fmt.Errorf("%s/%v: %w", w.Name, scheme, err)
			}
			got := rep.Records
			if corrupt && len(got) > 0 {
				got, corrupt = got[1:], false
			}
			if err := inst.Validate(got); err != nil {
				return res, fmt.Errorf("%s/%v: wrong output: %w", w.Name, scheme, err)
			}
			res.sec += sec
			res.saveSec[scheme] += sec
			res.jct += rep.JCT
			res.crossDC += rep.CrossDCBytes
			res.attempts += rep.TaskAttempts
			res.flows += ctx.Engine().Net.CompletedFlows()
			res.series += len(ctx.Engine().Events.Registry().Snapshot())
			res.allocBytes += rt1.allocBytes - rt0.allocBytes
			res.allocs += rt1.allocs - rt0.allocs
			res.gcCycles += rt1.gcCycles - rt0.gcCycles
			res.gcCPU += rt1.gcCPU - rt0.gcCPU
			if traced {
				if cp := rep.RunReport(w.Name).CriticalPath; cp != nil {
					res.critical[0] += cp.ComputeSec
					res.critical[1] += cp.TransferSec
					res.critical[2] += cp.WaitSec
				}
			}
		}
	}
	return res, nil
}

// addSweep records one sweep's samples.
func addSweep(s samples, r sweepResult) {
	s.add("job_s", r.sec)
	s.add("alloc_bytes_per_job", float64(r.allocBytes))
	s.add("allocs_per_job", float64(r.allocs))
	s.add("report_jct_s", r.jct)
	s.add("report_bytes_per_job", r.crossDC)
	s.add("go.gc_cycles", float64(r.gcCycles))
	s.add("go.gc_cpu_s", r.gcCPU)
	s.add("exec.save_s.spark", r.saveSec[core.SchemeSpark])
	s.add("exec.save_s.centralized", r.saveSec[core.SchemeCentralized])
	s.add("exec.save_s.agg", r.saveSec[core.SchemeAggShuffle])
	s.add("exec.task_attempts", float64(r.attempts))
	s.add("simnet.flows_completed", float64(r.flows))
	s.add("simnet.flows_per_s", ratio(float64(r.flows), r.sec))
	s.add("obs.series", float64(r.series))
}

// simSeeds is how many seeds one sim-fig7 run covers. The simulated
// WAN's bandwidth jitter makes some seeds' Spark runs take about twice as
// long (Fig. 7 averages ten runs per cell for this reason), so a single
// seed's sweep is not representative.
const simSeeds = 12

// sweepSeed is the seed of the i-th sweep of a run: the run covers seeds
// seed*simSeeds .. seed*simSeeds+simSeeds-1, cycling.
func sweepSeed(seed int64, i int) int64 { return seed*simSeeds + int64(i%simSeeds) }

// runSim measures the simulator regenerating Fig. 7: one job is one sweep
// of the five workloads under the three schemes, and a run cycles through
// simSeeds seeds derived from --seed. Every metric is the mean over seeds
// of that seed's median, so runs that fit more sweeps in still weigh every
// seed alike. Untraced, the run makes opts.setups untimed warm-up sweeps
// (their median Save time is setup_s), then a closed loop of sweeps that
// covers every seed at least once. Traced, it alternates untraced and
// traced sweeps of the same seed, then times direct calls into the rdd
// and obs layers on the workloads' own records. A seed's modeled results
// must repeat exactly; a sweep whose results differ from that seed's first
// sweep counts as failed.
func runSim(opts options) (*measurement, error) {
	ws, err := simWorkloads(opts.sizes.simWorkloads)
	if err != nil {
		return nil, err
	}
	m := newMeasurement()
	bySeed := make([]samples, simSeeds)
	for i := range bySeed {
		bySeed[i] = samples{}
	}
	first := map[int64]sweepResult{}
	// accept checks one sweep and counts it; it reports whether the sweep
	// is a good sample.
	accept := func(seed int64, r sweepResult, err error) bool {
		m.attempted++
		if f, ok := first[seed]; err == nil && ok && (r.jct != f.jct || r.crossDC != f.crossDC) {
			err = fmt.Errorf("seed %d: modeled results moved: jct %v→%v, cross-DC bytes %v→%v",
				seed, f.jct, r.jct, f.crossDC, r.crossDC)
		}
		if err != nil {
			m.failed++
			fmt.Fprintf(os.Stderr, "perfbench: sim-fig7 sweep %d: %v\n", m.attempted, err)
			return false
		}
		if _, ok := first[seed]; !ok {
			first[seed] = r
		}
		return true
	}

	if !opts.trace {
		setup := samples{}
		for i := 0; i < opts.setups; i++ {
			r, err := sweep(ws, sweepSeed(opts.seed, i), false, false)
			if err != nil {
				return nil, fmt.Errorf("warm-up sweep: %w", err)
			}
			setup.add("setup_s", r.sec)
		}
		m.values["setup_s"] = setup.median("setup_s")
		var records int
		start := time.Now()
		for i := 0; i < simSeeds || !deadline(opts, start, i); i++ {
			seed := sweepSeed(opts.seed, i)
			r, err := sweep(ws, seed, false, m.attempted+1 == opts.corruptJob)
			if accept(seed, r, err) {
				addSweep(bySeed[i%simSeeds], r)
				records = r.records
			}
		}
		finishSeeds(m, bySeed)
		m.values["records_per_s"] = ratio(float64(records), m.values["job_s"])
		m.values["success_ratio"] = ratio(float64(m.attempted-m.failed), float64(m.attempted))
		return m, nil
	}

	if _, err := sweep(ws, sweepSeed(opts.seed, 0), false, false); err != nil {
		return nil, fmt.Errorf("warm-up sweep: %w", err)
	}
	start := time.Now()
	for i := 0; !deadline(opts, start, i); i++ {
		seed := sweepSeed(opts.seed, i)
		s := bySeed[i%simSeeds]
		for _, traced := range []bool{false, true} {
			r, err := sweep(ws, seed, traced, m.attempted+1 == opts.corruptJob)
			if !accept(seed, r, err) {
				continue
			}
			if traced {
				s.add("traced_job_s", r.sec)
				s.add("trace.critical_compute_s", r.critical[0])
				s.add("trace.critical_transfer_s", r.critical[1])
				s.add("trace.critical_wait_s", r.critical[2])
				continue
			}
			addSweep(s, r)
		}
	}
	finishSeeds(m, bySeed)
	m.values["trace.overhead_s"] = m.values["traced_job_s"] - m.values["job_s"]
	lineages := func() []*rdd.RDD {
		var out []*rdd.RDD
		for _, w := range ws {
			out = append(out, w.Make(newSimContext(sweepSeed(opts.seed, 0), core.SchemeSpark, false), workloads.Options{Seed: sweepSeed(opts.seed, 0)}).Target)
		}
		return out
	}
	layers := samples{}
	if err := measureLayers(opts, m.spans, layers, lineages, false, 0, ""); err != nil {
		return nil, err
	}
	layers.finish(m)
	unusedLayers(m, "livecluster.", "blockstore.", "plan.")
	return m, nil
}

// finishSeeds sets each metric to the mean over seeds of the seed's
// median, and its sample count to the number of sweeps behind it.
func finishSeeds(m *measurement, bySeed []samples) {
	sum := map[string]float64{}
	seeds := map[string]int{}
	for _, s := range bySeed {
		for name, xs := range s {
			sum[name] += median(xs)
			seeds[name]++
			m.samples[name] += len(xs)
		}
	}
	for name, v := range sum {
		if _, set := m.values[name]; !set {
			m.values[name] = v / float64(seeds[name])
		}
	}
}
