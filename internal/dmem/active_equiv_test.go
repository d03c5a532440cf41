package dmem

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"southwell/internal/obs"
	"southwell/internal/problem"
	"southwell/internal/rma"
)

// compareRuns asserts two results agree bit-for-bit in everything that is
// part of results: the per-step history (norms, messages by tag, simulated
// time, fault counters), cumulative runtime stats, the watchdog verdict,
// and the gathered solution. Diagnostics (ActiveHist) are
// engine observations and deliberately excluded.
func compareRuns(t *testing.T, label string, a, b *Result) {
	t.Helper()
	if len(a.History) != len(b.History) {
		t.Fatalf("%s: history lengths differ: %d vs %d", label, len(a.History), len(b.History))
	}
	for s := range a.History {
		if a.History[s] != b.History[s] {
			t.Fatalf("%s: step %d differs:\na %+v\nb %+v", label, s, a.History[s], b.History[s])
		}
	}
	if a.Stats != b.Stats {
		t.Fatalf("%s: stats differ:\na %+v\nb %+v", label, a.Stats, b.Stats)
	}
	if a.Deadlocked != b.Deadlocked || a.DeadlockStep != b.DeadlockStep {
		t.Fatalf("%s: watchdog verdicts differ: (%v,%d) vs (%v,%d)",
			label, a.Deadlocked, a.DeadlockStep, b.Deadlocked, b.DeadlockStep)
	}
	for i := range a.X {
		if a.X[i] != b.X[i] {
			t.Fatalf("%s: solution differs at row %d: %.17g vs %.17g", label, i, a.X[i], b.X[i])
		}
	}
}

// TestActiveDenseEquivalence is the active-set engine's core invariant:
// skipping provably quiescent ranks must be invisible in results. Every
// method × rank count × world engine × fault setting runs once densely
// (Config.Dense) and once with active stepping, and the two runs must be
// bit-identical — histories, cumulative stats, watchdog verdicts, and
// solutions. Run under -race via `make race`.
func TestActiveDenseEquivalence(t *testing.T) {
	ranks := []int{64}
	if !testing.Short() {
		ranks = append(ranks, 256)
	}
	for _, p := range ranks {
		grid := 32
		if p > 64 {
			grid = 48
		}
		for mname, run := range methods() {
			for _, par := range []bool{false, true} {
				for _, chaos := range []bool{false, true} {
					name := mname
					if par {
						name += "/pool"
					} else {
						name += "/seq"
					}
					if chaos {
						name += "/chaos"
					}
					t.Run(name, func(t *testing.T) {
						cfg := Config{Steps: 15, Parallel: par}
						if chaos {
							cfg.Faults = fullChaosPlan(11)
						}
						l, b, x := buildCase(t, problem.Poisson2D(grid, grid), p, 1)
						active := run(l, b, x, cfg)
						dcfg := cfg
						dcfg.Dense = true
						if chaos {
							dcfg.Faults = fullChaosPlan(11) // fresh RNG state
						}
						l2, b2, x2 := buildCase(t, problem.Poisson2D(grid, grid), p, 1)
						dense := run(l2, b2, x2, dcfg)
						compareRuns(t, name, dense, active)
						if dense.ActiveHist != nil {
							t.Errorf("dense run reported an active histogram")
						}
					})
				}
			}
		}
	}
}

// TestActiveSkipsQuiescentRanks checks the engine actually sleeps ranks on
// a fault-free Southwell run — the whole point of active stepping — and
// that the histogram is well-formed: step 1 is dense (no hold observed
// yet) and counts stay in [0, P].
func TestActiveSkipsQuiescentRanks(t *testing.T) {
	const p, steps = 16, 30
	l, b, x := buildCase(t, problem.Poisson2D(32, 32), p, 2)
	res := DistributedSouthwell(l, b, x, Config{Steps: steps})
	if res.ActiveHist == nil {
		t.Fatal("active run reported no histogram")
	}
	if len(res.ActiveHist) != len(res.History)-1 {
		t.Fatalf("histogram length %d, want one per executed step %d",
			len(res.ActiveHist), len(res.History)-1)
	}
	if res.ActiveHist[0] != p {
		t.Errorf("step 1 ran %d ranks, want all %d (first step is dense)", res.ActiveHist[0], p)
	}
	min := p
	for s, n := range res.ActiveHist {
		if n < 0 || n > p {
			t.Fatalf("step %d active count %d out of range [0,%d]", s+1, n, p)
		}
		if n < min {
			min = n
		}
	}
	if min >= p {
		t.Errorf("no rank was ever skipped across %d steps — engine is not sleeping anyone", steps)
	}
}

// TestActiveStarvationWakeup exercises the wakeup calendar: under a fault
// plan, a skipped rank's starvation re-announce must fire exactly as the
// dense per-step poll would. The run is long enough for refresh sends to
// occur (asserted via the trace's refresh flag) while ranks sleep
// (asserted via the histogram), and the dense run must still be
// bit-identical — so every calendar wakeup landed on the right step.
func TestActiveStarvationWakeup(t *testing.T) {
	const p, steps = 16, 60
	plan := func() *rma.FaultPlan {
		return &rma.FaultPlan{
			Seed:      5,
			DelayProb: 0.35,
			DelayMax:  4,
			Pauses:    []rma.Pause{{Rank: 3, From: 5, To: 40}},
		}
	}
	rec := obs.NewRecorder(p)
	l, b, x := buildCase(t, problem.Poisson2D(24, 24), p, 3)
	active := DistributedSouthwell(l, b, x, Config{Steps: steps, Faults: plan(), Trace: rec})
	l2, b2, x2 := buildCase(t, problem.Poisson2D(24, 24), p, 3)
	dense := DistributedSouthwell(l2, b2, x2, Config{Steps: steps, Faults: plan(), Dense: true})
	compareRuns(t, "starvation", dense, active)

	skipped := false
	for _, n := range active.ActiveHist {
		if n < p {
			skipped = true
			break
		}
	}
	if !skipped {
		t.Fatal("no rank ever slept — the wakeup path was not exercised")
	}
	var buf bytes.Buffer
	if err := rec.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), `"refresh":true`) {
		t.Error("no starvation re-announce fired — raise steps or delay probability")
	}
}

// TestActiveWatchdogWhileAsleep pauses every rank mid-run so the watchdog's
// patience window elapses with the active set empty or asleep: the stop
// must fire on the same step, with the same verdict, as dense stepping.
func TestActiveWatchdogWhileAsleep(t *testing.T) {
	const p, steps = 8, 40
	plan := func() *rma.FaultPlan {
		pauses := make([]rma.Pause, p)
		for r := range pauses {
			pauses[r] = rma.Pause{Rank: r, From: 6, To: 39}
		}
		return &rma.FaultPlan{Seed: 2, Pauses: pauses}
	}
	l, b, x := buildCase(t, problem.Poisson2D(16, 16), p, 4)
	active := DistributedSouthwell(l, b, x, Config{Steps: steps, Faults: plan(), Watchdog: 4})
	l2, b2, x2 := buildCase(t, problem.Poisson2D(16, 16), p, 4)
	dense := DistributedSouthwell(l2, b2, x2, Config{Steps: steps, Faults: plan(), Dense: true, Watchdog: 4})
	compareRuns(t, "watchdog", dense, active)
	if !active.Deadlocked {
		t.Fatal("watchdog never fired — pause window or patience is miscalibrated")
	}
	if got, want := len(active.History)-1, active.DeadlockStep; got != want {
		t.Errorf("run continued past the stop: %d steps recorded, stopped at %d", got, want)
	}
}

// FuzzActiveDenseChaos fuzzes the fault plan under which active-set
// stepping must stay bit-identical to the sequential full-mask oracle
// (Config.Dense): seed, delay probability and maximum delay, duplication,
// reordering, one pause window, and one straggler, crossed with BJ, PS and
// DS at P ≤ 16 on a small Poisson grid, on either world engine. An input
// with no fault at all runs on a perfect network. The seed corpus in
// testdata/fuzz covers every fault kind alone, all together, and none, so
// plain `go test` runs each through the one delivery path.
func FuzzActiveDenseChaos(f *testing.F) {
	f.Fuzz(func(t *testing.T, seed int64, method, ranks, delay, delayMax, dup, reorder,
		pauseRank, pauseFrom, pauseLen, straggler, slow uint8, pool bool) {
		names := []string{"BlockJacobi", "ParallelSouthwell", "DistributedSouthwell"}
		name := names[int(method)%len(names)]
		run := methods()[name]
		p := 2 + int(ranks)%15
		plan := &rma.FaultPlan{
			Seed:        seed,
			DelayProb:   float64(delay) / 256,
			DelayMax:    1 + int(delayMax)%4,
			DupProb:     float64(dup) / 256,
			ReorderProb: float64(reorder) / 256,
		}
		if pauseLen > 0 {
			from := int(pauseFrom) % 45
			plan.Pauses = []rma.Pause{{Rank: int(pauseRank) % p, From: from, To: from + int(pauseLen)%20 + 1}}
		}
		if slow > 0 {
			plan.Stragglers = map[int]float64{int(straggler) % p: 1 + float64(slow)/32}
		}
		if delay|dup|reorder|pauseLen|slow == 0 {
			plan = nil // a perfect network: the member-list fold path
		}
		cfg := Config{Steps: 20, Parallel: pool, Faults: plan}
		l, b, x := buildCase(t, problem.Poisson2D(12, 12), p, 1)
		active := run(l, b, x, cfg)
		dcfg := Config{Steps: 20, Faults: plan, Dense: true}
		l2, b2, x2 := buildCase(t, problem.Poisson2D(12, 12), p, 1)
		dense := run(l2, b2, x2, dcfg)
		compareRuns(t, fmt.Sprintf("%s P=%d pool=%v plan=%+v", name, p, pool, plan), dense, active)
	})
}
