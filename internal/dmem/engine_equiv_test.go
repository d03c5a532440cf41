package dmem

import (
	"testing"

	"southwell/internal/problem"
	"southwell/internal/rma"
)

// TestEngineEquivalenceOnSuite is the DESIGN.md §6 ablation promoted to a
// permanent invariant: the persistent worker-pool engine must produce
// bit-identical StepStats histories (residual norms, message counts split
// by tag, simulated time) to the sequential engine, for every method, on
// real suite matrices. Run under -race via `make race` — the equivalence
// plus the race detector together prove the pool introduces neither
// nondeterminism nor data races.
func TestEngineEquivalenceOnSuite(t *testing.T) {
	if testing.Short() {
		t.Skip("suite runs are slow in -short mode")
	}
	names := []string{"Hook_1498", "msdoor", "af_5_k101"}
	const ranks, steps = 64, 12
	for _, name := range names {
		e, ok := problem.SuiteByName(name)
		if !ok {
			t.Fatalf("unknown suite matrix %q", name)
		}
		for mname, run := range methods() {
			t.Run(name+"/"+mname, func(t *testing.T) {
				l, b, x := buildCase(t, e.Gen(), ranks, 1)
				seq := run(l, b, x, Config{Steps: steps})
				l2, b2, x2 := buildCase(t, e.Gen(), ranks, 1)
				par := run(l2, b2, x2, Config{Steps: steps, Parallel: true})
				if len(seq.History) != len(par.History) {
					t.Fatalf("history lengths differ: %d vs %d", len(seq.History), len(par.History))
				}
				for i := range seq.History {
					if seq.History[i] != par.History[i] {
						t.Fatalf("step %d differs:\nseq %+v\npool %+v", i, seq.History[i], par.History[i])
					}
				}
				if seq.Stats != par.Stats {
					t.Fatalf("cumulative stats differ:\nseq %+v\npool %+v", seq.Stats, par.Stats)
				}
				for i := range seq.X {
					if seq.X[i] != par.X[i] {
						t.Fatalf("solution differs at row %d: %.17g vs %.17g", i, seq.X[i], par.X[i])
					}
				}
			})
		}
	}
}

// TestPoolIdenticalHistory: the worker-pool engine is bit-identical to the
// sequential engine for every method, the deadlock-prone 2016 piggyback
// variant included, on an irregular FEM partition.
func TestPoolIdenticalHistory(t *testing.T) {
	a := problem.FEM2D(24, 0.3, 9)
	for name, run := range chaosMethods() {
		l, b, x := buildCase(t, a.Clone(), 12, 9)
		seq := run(l, b, x, Config{Steps: 25})
		l2, b2, x2 := buildCase(t, a.Clone(), 12, 9)
		pool := run(l2, b2, x2, Config{Steps: 25, Parallel: true})
		compareRuns(t, name, seq, pool)
	}
}

// TestPoolChaosIdentical: under a counter-indexed fault plan (stragglers,
// per-phase spikes, rank pauses) the worker-pool engine reproduces the
// sequential engine bit for bit, watchdog verdicts and chaos cost
// multipliers included.
func TestPoolChaosIdentical(t *testing.T) {
	assertPoolChaosIdentical(t, &rma.FaultPlan{
		Seed:               42,
		Stragglers:         map[int]float64{1: 4, 5: 2.5},
		StragglerPhaseProb: 0.2,
		Pauses:             []rma.Pause{{Rank: 2, From: 2, To: 5}, {Rank: 7, From: 4, To: 6}},
	}, 26, 13)
}

// TestPoolRNGPlanIdentical: delays and duplicates drawn from the plan's
// PRNG leave the worker-pool engine bit-identical to the sequential one.
func TestPoolRNGPlanIdentical(t *testing.T) {
	assertPoolChaosIdentical(t, &rma.FaultPlan{Seed: 7, DelayProb: 0.3, DupProb: 0.1}, 20, 8)
}

// assertPoolChaosIdentical runs every method on a grid x grid Poisson
// problem split over p ranks, sequentially and on the worker pool, under
// plan, and fails unless the two runs agree bit for bit.
func assertPoolChaosIdentical(t *testing.T, plan *rma.FaultPlan, grid, p int) {
	t.Helper()
	a := problem.Poisson2D(grid, grid)
	for name, run := range chaosMethods() {
		l, b, x := buildCase(t, a.Clone(), p, 5)
		seq := run(l, b, x, Config{Steps: 20, Faults: plan})
		l2, b2, x2 := buildCase(t, a.Clone(), p, 5)
		pool := run(l2, b2, x2, Config{Steps: 20, Parallel: true, Faults: plan})
		compareRuns(t, name, seq, pool)
	}
}
