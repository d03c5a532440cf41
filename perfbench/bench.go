package main

import (
	"fmt"
	"math"
	"runtime"
	"slices"
	"syscall"
	"time"

	"southwell/internal/core"
	"southwell/internal/dmem"
	"southwell/internal/partition"
)

// config is one invocation: how long to measure, whether to add the
// traced and auxiliary runs that per-layer metrics need, and the seed
// that generates the inputs.
type config struct {
	seconds float64
	trace   bool
	seed    int64
}

// layerCost is the host time and memory of calls into one layer:
// wall-clock seconds plus runtime.MemStats deltas.
type layerCost struct {
	sec, allocMB, mallocs, gc float64
}

func (c *layerCost) add(o layerCost) {
	c.sec += o.sec
	c.allocMB += o.allocMB
	c.mallocs += o.mallocs
	c.gc += o.gc
}

// measure calls f and returns its wall-clock time and allocation deltas.
func measure(f func()) layerCost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	f()
	sec := time.Since(t0).Seconds()
	runtime.ReadMemStats(&m1)
	return layerCost{
		sec:     sec,
		allocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
		mallocs: float64(m1.Mallocs - m0.Mallocs),
		gc:      float64(m1.NumGC - m0.NumGC),
	}
}

// passCost is the accounting of one pass; it holds no results, so a run
// can keep one per pass without keeping their memory alive.
type passCost struct {
	total                         float64
	part, layout, newSetup, solve layerCost
	solveBy                       map[core.DistMethod]float64
	rankSteps                     float64 // Σ P × steps over the pass's solves
}

func (c passCost) setup() float64 { return c.part.sec + c.layout.sec + c.newSetup.sec }

// pass is one sweep over some of a workload's cases: results[c][i] is
// case c solved by the pass's i-th method (nil where the solve errored or
// the pass did not cover the case).
type pass struct {
	passCost
	cases   []int
	methods []core.DistMethod
	setups  []*dmem.Setup // per matrix
	results [][]*dmem.Result
	errs    [][]error
}

// oracleCell is one cell's sequential dense reference run and the first
// check it failed, if any.
type oracleCell struct {
	res *dmem.Result
	err error
}

type cellKey struct {
	c int
	m core.DistMethod
}

// runner drives one workload invocation.
type runner struct {
	spec      spec
	cfg       config
	in        inputs
	oracle    map[cellKey]oracleCell
	oracleSec float64 // sequential dense solve time of the timed methods
	gate      gate
}

// solve runs one cell on a prebuilt setup. The timed engine is the one
// SolveDistributed and dsouthwell run by default: sequential stepping
// with the active set. On a shared host the worker pool's per-phase
// barriers amplify time stolen from either core (a competing CPU hog
// slowed pool solves of suite256 by 25% and left sequential ones
// unchanged), so the pool is measured beside it, not as the end-to-end
// number. mod, when set, adjusts the engine for the other runs.
func (r *runner) solve(c int, s *dmem.Setup, m core.DistMethod, mod modifier) (*dmem.Result, error) {
	in := r.in.cases[c]
	opt := core.DistOptions{
		Method: m, Ranks: r.spec.ranks, Steps: r.spec.steps, Target: r.spec.target, Setup: s,
	}
	if mod != nil {
		mod(c, m, &opt)
	}
	return core.SolveDistributed(r.in.mats[in.mat], in.b, in.x, opt)
}

// setUp partitions, lays out and prepares matrix k from scratch, charging
// each layer's cost to pc.
func (r *runner) setUp(k int, pc *passCost) (*dmem.Setup, error) {
	a := r.in.mats[k]
	var part []int
	pc.part.add(measure(func() {
		part = partition.Partition(a, r.spec.ranks, partition.Options{Seed: r.cfg.seed})
	}))
	var l *dmem.Layout
	var err error
	pc.layout.add(measure(func() { l, err = dmem.NewLayout(a, part, r.spec.ranks) }))
	if err != nil {
		return nil, fmt.Errorf("matrix %d: layout: %w", k, err)
	}
	var s *dmem.Setup
	pc.newSetup.add(measure(func() { s, err = dmem.NewSetup(l, dmem.LocalGS) }))
	if err != nil {
		return nil, fmt.Errorf("matrix %d: setup: %w", k, err)
	}
	return s, nil
}

// modifier adjusts the solve options of one cell.
type modifier func(c int, m core.DistMethod, o *core.DistOptions)

// solveCase solves case c on its matrix's setup by every method of ps,
// charging the solve layer.
func (r *runner) solveCase(ps *pass, c int, mod modifier) {
	s := ps.setups[r.in.cases[c].mat]
	ps.cases = append(ps.cases, c)
	ps.results[c] = make([]*dmem.Result, len(ps.methods))
	ps.errs[c] = make([]error, len(ps.methods))
	for i, m := range ps.methods {
		var res *dmem.Result
		var err error
		cost := measure(func() { res, err = r.solve(c, s, m, mod) })
		ps.solve.add(cost)
		ps.solveBy[m] += cost.sec
		ps.results[c][i], ps.errs[c][i] = res, err
		if res != nil {
			ps.rankSteps += float64(res.P) * float64(len(res.History)-1)
		}
	}
}

func (r *runner) newPass(methods []core.DistMethod, setups []*dmem.Setup) *pass {
	ps := &pass{
		passCost: passCost{solveBy: map[core.DistMethod]float64{}},
		methods:  methods,
		setups:   make([]*dmem.Setup, len(r.in.mats)),
		results:  make([][]*dmem.Result, len(r.in.cases)),
		errs:     make([][]error, len(r.in.cases)),
	}
	copy(ps.setups, setups)
	return ps
}

// fullPass is one closed-loop pass: each matrix set up from scratch, then
// each of its cases solved by every method, back to back.
func (r *runner) fullPass(methods []core.DistMethod) (*pass, error) {
	ps := r.newPass(methods, nil)
	t0 := time.Now()
	for c, in := range r.in.cases {
		if ps.setups[in.mat] == nil {
			s, err := r.setUp(in.mat, &ps.passCost)
			if err != nil {
				return nil, err
			}
			ps.setups[in.mat] = s
		}
		r.solveCase(ps, c, nil)
	}
	ps.total = time.Since(t0).Seconds()
	return ps, nil
}

// solvePass solves the given cases on prebuilt setups (no setup cost).
func (r *runner) solvePass(setups []*dmem.Setup, cases []int, methods []core.DistMethod, mod modifier) *pass {
	ps := r.newPass(methods, setups)
	for _, c := range cases {
		r.solveCase(ps, c, mod)
	}
	return ps
}

// sequentialDense selects the oracle engine: one goroutine, every rank
// every phase.
func sequentialDense(_ int, _ core.DistMethod, o *core.DistOptions) { o.Dense = true }

// workerPool selects the worker-pool engine with barrier epochs.
func workerPool(_ int, _ core.DistMethod, o *core.DistOptions) { o.Parallel = true }

// buildOracle runs every (case, method) cell once on the sequential dense
// engine and checks the reference itself: the recomputed residual must
// match the reported one, and shape claims apply when shape is set. It
// returns the oracle's solve time.
func (r *runner) buildOracle(setups []*dmem.Setup, cases []int, methods []core.DistMethod, shape bool) float64 {
	ps := r.solvePass(setups, cases, methods, sequentialDense)
	for _, c := range cases {
		in := r.in.cases[c]
		for i, m := range methods {
			cell := oracleCell{res: ps.results[c][i], err: ps.errs[c][i]}
			if cell.err == nil {
				cell.err = residualAgrees(r.in.mats[in.mat], in.b, cell.res)
			}
			r.oracle[cellKey{c, m}] = cell
		}
	}
	if shape && r.spec.shape != nil {
		for k, msg := range r.spec.shape(methods, ps.results) {
			key := cellKey{k[0], methods[k[1]]}
			if cell := r.oracle[key]; cell.err == nil {
				cell.err = fmt.Errorf("shape: %s", msg)
				r.oracle[key] = cell
			}
		}
	}
	return ps.solve.sec
}

// check counts every solve of ps against the oracle.
func (r *runner) check(ps *pass, what string) {
	for _, c := range ps.cases {
		for i, m := range ps.methods {
			err := ps.errs[c][i]
			if err == nil {
				err = r.checkCell(c, m, ps.results[c][i])
			}
			r.gate.record(fmt.Sprintf("%s %s/%s", what, r.in.cases[c].label, m), err)
		}
	}
}

func (r *runner) checkCell(c int, m core.DistMethod, res *dmem.Result) error {
	ref, ok := r.oracle[cellKey{c, m}]
	switch {
	case !ok:
		return fmt.Errorf("no oracle run")
	case ref.err != nil:
		return fmt.Errorf("oracle: %w", ref.err)
	}
	return sameResult(res, ref.res)
}

// report is everything an invocation measured.
type report struct {
	passes  int
	metrics map[string]float64 // every end-to-end and, when traced, per-layer metric
	spreads map[string][2]float64
	shares  map[string]float64 // layer shares of total_s, for the traced report
}

// run executes one workload invocation: generate inputs, warm up, build
// the oracle, then closed-loop timed passes for cfg.seconds, and — when
// tracing — the per-layer runs.
func run(sp spec, cfg config) (*report, *gate, error) {
	r := &runner{spec: sp, cfg: cfg, oracle: map[cellKey]oracleCell{}}
	buildCost := measure(func() { r.in = sp.inputs(cfg.seed) })
	all := make([]int, len(r.in.cases))
	for c := range all {
		all[c] = c
	}

	// The warm-up pass is untimed; its setups serve the oracle, and all of
	// it is dropped before the timed passes so it does not count toward
	// peak memory.
	warm, err := r.fullPass(sp.methods)
	if err != nil {
		return nil, nil, err
	}
	r.oracleSec = r.buildOracle(warm.setups, all, sp.methods, true)
	r.check(warm, "warm-up")

	var costs []passCost
	var last *pass
	start := time.Now()
	for len(costs) == 0 || time.Since(start).Seconds() < cfg.seconds {
		last = nil // let the previous pass's setups and results go
		runtime.GC()
		ps, err := r.fullPass(sp.methods)
		if err != nil {
			return nil, nil, err
		}
		r.check(ps, fmt.Sprintf("pass %d", len(costs)+1))
		costs = append(costs, ps.passCost)
		last = ps
	}
	rep := &report{passes: len(costs), metrics: map[string]float64{}, spreads: map[string][2]float64{}}
	rep.metrics["peak_rss_mb"] = peakRSSMB()
	rep.series(costs, "total_s", func(c passCost) float64 { return c.total })
	rep.series(costs, "setup_s", passCost.setup)
	rep.series(costs, "solve_s", func(c passCost) float64 { return c.solve.sec })
	exact := exactMetrics(last, sp.accuracy)
	for _, k := range []string{"sim_time_s", "msgs", "steps"} {
		rep.metrics[k] = exact[k]
	}
	if cfg.trace {
		rep.metrics["problem.build_s"] = buildCost.sec
		for k, v := range exact {
			rep.metrics[k] = v
		}
		r.perLayer(rep, costs, last, all)
	}
	return rep, &r.gate, nil
}

// series records the median over passes of one per-pass quantity, with
// its min..max for the readable table.
func (rep *report) series(costs []passCost, name string, f func(passCost) float64) {
	v := make([]float64, len(costs))
	for i, c := range costs {
		v[i] = f(c)
	}
	rep.metrics[name] = median(v)
	lo, hi := v[0], v[0]
	for _, x := range v {
		lo, hi = math.Min(lo, x), math.Max(hi, x)
	}
	rep.spreads[name] = [2]float64{lo, hi}
}

// perLayer adds the per-layer metrics: layer costs from the timed passes,
// partition and layout structure from the last pass, one run of each
// method the workload does not time, a traced pass and a worker-pool
// pass.
func (r *runner) perLayer(rep *report, costs []passCost, last *pass, all []int) {
	rep.series(costs, "partition.s", func(c passCost) float64 { return c.part.sec })
	rep.series(costs, "partition.alloc_mb", func(c passCost) float64 { return c.part.allocMB })
	rep.series(costs, "partition.mallocs", func(c passCost) float64 { return c.part.mallocs })
	rep.series(costs, "partition.gc", func(c passCost) float64 { return c.part.gc })
	rep.series(costs, "dmem.layout_s", func(c passCost) float64 { return c.layout.sec })
	rep.series(costs, "dmem.layout_alloc_mb", func(c passCost) float64 { return c.layout.allocMB })
	rep.series(costs, "dmem.setup_s", func(c passCost) float64 { return c.newSetup.sec })
	rep.series(costs, "core.solve_alloc_mb", func(c passCost) float64 { return c.solve.allocMB })
	rep.series(costs, "core.solve_mallocs", func(c passCost) float64 { return c.solve.mallocs })
	rep.series(costs, "core.solve_gc", func(c passCost) float64 { return c.solve.gc })
	rep.series(costs, "dmem.ns_per_rank_step", func(c passCost) float64 { return c.solve.sec * 1e9 / c.rankSteps })
	for _, m := range r.spec.methods {
		rep.series(costs, "core.solve_"+string(m)+"_s", func(c passCost) float64 { return c.solveBy[m] })
	}
	for k, v := range setupMetrics(last.setups) {
		rep.metrics[k] = v
	}

	// Methods the workload does not time (BJ and PS on the point load)
	// solve its first case once on the last pass's setups, checked against
	// their own oracle, so every per-method solve time is measured on
	// every workload.
	var aux []core.DistMethod
	for _, m := range paperMethods {
		if !slices.Contains(r.spec.methods, m) {
			aux = append(aux, m)
		}
	}
	if len(aux) > 0 {
		r.buildOracle(last.setups, all[:1], aux, false)
		ax := r.solvePass(last.setups, all[:1], aux, nil)
		r.check(ax, "aux")
		for _, m := range aux {
			rep.metrics["core.solve_"+string(m)+"_s"] = ax.solveBy[m]
		}
	}

	var stampers []*hostStamper
	runtime.GC()
	traced := r.solvePass(last.setups, all, r.spec.methods, func(c int, m core.DistMethod, o *core.DistOptions) {
		var phases, steps int64
		if ref := r.oracle[cellKey{c, m}].res; ref != nil {
			phases, steps = ref.Stats.Phases, int64(len(ref.History))
		}
		h := newHostStamper(r.spec.ranks, phases, steps)
		stampers = append(stampers, h)
		o.Trace = h
	})
	r.check(traced, "traced")
	for k, v := range traceMetrics(stampers) {
		rep.metrics[k] = v
	}
	rep.metrics["trace.overhead_frac"] = traced.solve.sec/rep.metrics["solve_s"] - 1

	runtime.GC()
	pool := r.solvePass(last.setups, all, r.spec.methods, workerPool)
	r.check(pool, "pool")
	rep.metrics["engine.seq_dense_solve_s"] = r.oracleSec
	rep.metrics["engine.pool_solve_s"] = pool.solve.sec
	rep.metrics["engine.pool_speedup"] = rep.metrics["solve_s"] / pool.solve.sec

	rep.shares = map[string]float64{
		"partition.s": rep.metrics["partition.s"] / rep.metrics["total_s"],
		"setup_s":     rep.metrics["setup_s"] / rep.metrics["total_s"],
		"solve_s":     rep.metrics["solve_s"] / rep.metrics["total_s"],
	}
}

// exactMetrics sums the simulated, deterministic outputs of one pass:
// identical for every pass of a run and every run with the same seed. A
// solve that never reaches accuracy counts its whole budget toward
// dmem.steps_to_target.
func exactMetrics(ps *pass, accuracy float64) map[string]float64 {
	var simTime, msgs, steps, toTarget, relax, solveMsgs, resMsgs, bytes, phases float64
	var active, activeSlots float64
	for _, row := range ps.results {
		for _, res := range row {
			if res == nil {
				continue
			}
			st := res.Stats
			simTime += st.SimTime
			msgs += float64(st.TotalMsgs())
			steps += float64(len(res.History) - 1)
			if at, ok := res.StepsToNorm(accuracy); ok {
				toTarget += at
			} else {
				toTarget += float64(len(res.History) - 1)
			}
			relax += float64(res.Final().Relaxations)
			solveMsgs += float64(st.SolveMsgs)
			resMsgs += float64(st.ResMsgs)
			bytes += float64(st.SolveBytes + st.ResBytes)
			phases += float64(st.Phases)
			for _, n := range res.ActiveHist {
				active += float64(n)
			}
			activeSlots += float64(res.P) * float64(len(res.ActiveHist))
		}
	}
	m := map[string]float64{
		"sim_time_s": simTime, "msgs": msgs, "steps": steps,
		"dmem.relax_rows": relax, "dmem.steps_to_target": toTarget, "rma.solve_msgs": solveMsgs, "rma.res_msgs": resMsgs,
		"rma.bytes": bytes, "rma.phases": phases,
		"dmem.active_skip_frac": math.NaN(),
	}
	if activeSlots > 0 {
		m["dmem.active_skip_frac"] = 1 - active/activeSlots
	}
	return m
}

// setupMetrics describes the partitions and layouts of one pass:
// quality (summed edge cut, worst imbalance) and exchange structure.
func setupMetrics(setups []*dmem.Setup) map[string]float64 {
	var cut, imb, ext, nbrs float64
	for _, s := range setups {
		q := partition.Quality(s.Layout.A, s.Layout.Part, s.Layout.P)
		cut += q.EdgeCut
		imb = math.Max(imb, q.Imbalance)
		for _, rd := range s.Layout.Ranks {
			ext += float64(len(rd.ExtGlob))
			nbrs += float64(rd.Degree())
		}
	}
	return map[string]float64{
		"partition.edge_cut": cut, "partition.imbalance": imb,
		"dmem.ext_rows": ext, "dmem.nbr_pairs": nbrs,
	}
}

// traceMetrics pools the traced pass's host-time stamps and event tallies.
func traceMetrics(hs []*hostStamper) map[string]float64 {
	var phases, steps []float64
	var relaxed, held, resSends int64
	for _, h := range hs {
		phases = append(phases, h.phaseUS...)
		steps = append(steps, h.stepUS...)
		r, hd, rs := h.tally()
		relaxed, held, resSends = relaxed+r, held+hd, resSends+rs
	}
	return map[string]float64{
		"trace.phase_host_us.p50": percentile(phases, 50),
		"trace.phase_host_us.p99": percentile(phases, 99),
		"trace.step_host_us.p50":  percentile(steps, 50),
		"trace.relax_frac":        float64(relaxed) / float64(relaxed+held),
		"trace.res_sends":         float64(resSends),
	}
}

// peakRSSMB is the process's resident-memory high-water mark.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) / 1024 // Linux reports kilobytes
}
