package main

import (
	"math"
	"sort"
)

// metricDef names one reported metric. The lists below are the
// benchmark's contract and are kept in the same order as BENCHMARK.json
// (a test enforces it). The comment on each per-layer metric says which
// end-to-end metric it should move, on which workload.
type metricDef struct {
	name, unit, better string
}

const (
	lower  = "lower"
	higher = "higher"
)

// endToEnd is what a user of the simulator sees, measured with tracing
// off, one value per pass (median over the run's timed passes). The
// failure share is the result line's failed ÷ attempted, not a metric:
// it is 0 on a correct run, and a metric must never read 0.
var endToEnd = []metricDef{
	{"total_s", "s", lower},      // matrix in memory → gathered solutions, every cell of a pass
	{"setup_s", "s", lower},      // partition + layout + NewSetup
	{"solve_s", "s", lower},      // SolveDistributed, summed over the pass's cells
	{"peak_rss_mb", "MB", lower}, // process high-water mark after the timed passes
	{"sim_time_s", "s", lower},   // the paper's α-β-γ time, summed; exact for a seed
	{"msgs", "count", lower},     // messages sent, summed; exact for a seed
	{"steps", "count", lower},    // parallel steps executed; exact
}

// perLayer is reported by --trace 1. Host times and memory come from
// calls into each layer's public functions made by the benchmark itself;
// the trace.* metrics come from a separate traced pass.
var perLayer = []metricDef{
	{"problem.build_s", "s", lower},       // input generation; reported only, not part of total_s
	{"partition.s", "s", lower},           // setup_s, total_s: pointload8192 most, suite256; barely uniform8192
	{"partition.alloc_mb", "MB", lower},   // as partition.s
	{"partition.mallocs", "count", lower}, // as partition.s
	{"partition.gc", "count", lower},      // as partition.s
	{"partition.edge_cut", "1", lower},    // guards msgs, sim_time_s everywhere: a faster partitioner must not raise it
	{"partition.imbalance", "1", lower},   // as partition.edge_cut
	{"dmem.layout_s", "s", lower},         // setup_s: uniform8192, pointload8192
	{"dmem.layout_alloc_mb", "MB", lower}, // as dmem.layout_s
	{"dmem.ext_rows", "count", lower},     // as dmem.layout_s; fixed by the partition
	{"dmem.nbr_pairs", "count", lower},    // as dmem.layout_s; fixed by the partition
	{"dmem.setup_s", "s", lower},          // setup_s if work moves into NewSetup (≈0 with the GS local solver)
	{"core.solve_bj_s", "s", lower},       // solve_s, total_s: uniform8192, suite256; pointload8192 runs it outside the passes
	{"core.solve_ps_s", "s", lower},       // as core.solve_bj_s
	{"core.solve_ds_s", "s", lower},       // solve_s, total_s: uniform8192, suite256; only solve_s on pointload8192
	{"core.solve_alloc_mb", "MB", lower},  // as core.solve_ds_s
	{"core.solve_mallocs", "count", lower},
	{"core.solve_gc", "count", lower},
	{"dmem.ns_per_rank_step", "ns", lower},   // solve_s on uniform8192, suite256
	{"dmem.active_skip_frac", "1", higher},   // explains solve_s: ≈0.99 on pointload8192, ≈0.02 on uniform8192
	{"dmem.relax_rows", "count", lower},      // explains solve_s alongside dmem.active_skip_frac
	{"dmem.steps_to_target", "count", lower}, // Table 2's steps to the workload's accuracy; explains sim_time_s, msgs
	{"rma.solve_msgs", "count", lower},       // sim_time_s, msgs everywhere; host solve_s on uniform8192
	{"rma.res_msgs", "count", lower},         // as rma.solve_msgs
	{"rma.bytes", "B", lower},                // as rma.solve_msgs
	{"rma.phases", "count", lower},           // as rma.solve_msgs
	{"trace.phase_host_us.p50", "us", lower}, // solve_s on uniform8192 (traced path, not the e2e one)
	{"trace.phase_host_us.p99", "us", lower}, // as trace.phase_host_us.p50
	{"trace.step_host_us.p50", "us", lower},  // as trace.phase_host_us.p50
	{"trace.relax_frac", "1", higher},        // relaxations per rank-step; explains solve_s and msgs
	{"trace.res_sends", "count", lower},      // explicit residual updates; explains rma.res_msgs
	{"trace.overhead_frac", "1", lower},      // traced ÷ untraced solve_s − 1
	{"engine.seq_dense_solve_s", "s", lower}, // sequential dense oracle; deleting a path must not move solve_s
	{"engine.pool_solve_s", "s", lower},      // worker-pool engine, barrier epochs, active set; as engine.seq_dense_solve_s
	{"engine.pool_speedup", "x", higher},     // solve_s ÷ engine.pool_solve_s
}

// median returns the middle of v (the mean of the two middle values for
// an even count).
func median(v []float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	n := len(s)
	if n == 0 {
		return math.NaN()
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile returns the nearest-rank q-th percentile of v.
func percentile(v []float64, q float64) float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s) == 0 {
		return math.NaN()
	}
	i := int(math.Ceil(q/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}
