package dmem

import (
	"southwell/internal/obs"
	"southwell/internal/rma"
)

// Step engine (DESIGN.md §14): the one step loop every method runs
// through. Distributed and Parallel Southwell relax only local
// residual-norm maxima, so at paper scale most ranks spend most steps
// provably idle: empty window, unchanged state, and a decision that a
// replay of last step's hold. The engine tracks exactly that quiescence
// and dispatches each phase over the active subset through
// rma.RunPhaseActive, charging sleepers their unconditional phase-1 flops
// (the Degree() decision scan) through the idle vector so simulated time,
// message statistics, and chaos schedules stay bit-identical to running
// every rank.
//
// The quiescence invariant: a rank may sleep only after an executed step
// in which it did not relax and read no mail. Its state is then unchanged
// since a step in which it held, and every step function is deterministic
// in (state, inbox), so running it would reproduce that hold — and its
// phase-2 triggers are self-extinguishing (a fired send sets the trigger's
// guard variable to its threshold) — for as long as the state stays
// unchanged. State can change only through its own relaxation (it is
// asleep), a landed message (the boundary scans catch every landing,
// including chaos-delayed deliveries and windows retained across pauses),
// or the starvation clock (converted from a per-step poll into a stamped
// counter plus a wakeup calendar). Waking a clean rank is always safe: its
// executed step is an exact no-op beyond the idle charge, so running any
// superset of the minimal active set is bit-identical — running all ranks
// IS dense stepping.
//
// Methods declare their own quiescence rules by how they build the
// engine: DS sleeps ranks with starvation stamps and a wakeup calendar
// under chaos, PS sleeps them without a starvation clock, and BJ and PB16
// never sleep one. In never-sleep mode — also Config.Dense, the full-mask
// oracle, and DS's UpdateSlack < 0 ablation — every phase is a
// full-mask rma.RunPhase, every rank's cost comes from the per-rank
// α-β-γ formula, and the run reports no ActiveHist.

// stepEngine drives one run. All fields are written only on the driving
// goroutine, between phases.
type stepEngine struct {
	l      *Layout
	w      *rma.World
	states []*rankState
	sleep  bool // quiescent ranks may sleep; false: every rank runs every phase
	step   int  // the step being run; the methods' phase functions read it

	faults       bool // a fault plan is installed: pauses can deschedule members
	starve       bool // DS under chaos: starvation rule (+ calendar when sleeping)
	refreshAfter int

	inSet []bool // rank executes the current step's remaining phases
	// stay marks a rank that must not sleep at the end of this step: its
	// window was nonempty at a boundary, or a fault-plan pause kept it
	// from executing one of the step's phases (a step it did not execute
	// proves nothing about its quiescence).
	stay    []bool
	idleDeg []float64 // phase-1 idle charge: the unconditional Degree() scan
	// list mirrors inSet as an ascending member list — the O(active) view
	// every per-step walk (phase dispatch, flag reset, norm tally, sleep
	// scan) runs over instead of all P. Admissions mark it dirty and
	// syncList rebuilds it lazily, so the O(P) rebuild is paid only on
	// steps where membership grew; endStep compacts removals in place.
	// In never-sleep mode it is every rank, always.
	list      []int32
	listDirty bool
	// norms2 holds every rank's squared local norm for the flat global-norm
	// sum (flatNorm); tally refreshes the member slots, and a sleeper's
	// norm cannot change.
	norms2 []float64
	// calendar maps a future step to the ranks whose starvation refresh
	// first fires there. Consumed by exact-key lookup at beginStep, never
	// iterated, so map order cannot influence the run.
	calendar map[int][]int32

	active int   // current membership count, maintained by admit/endStep
	hist   []int // per-step phase-1 active counts → Result.ActiveHist
}

// newStepEngine builds the world, the rank states, and the engine of one
// run. sleep declares that the method's quiescent ranks may sleep (it is
// overridden by Config.Dense); starvation marks methods with a starvation
// re-announce clock (DS), which matters only under a fault plan.
func newStepEngine(l *Layout, b, x []float64, cfg Config, sleep, starvation bool) *stepEngine {
	w := newWorld(l, cfg)
	states := newRankStates(l, b, x)
	configureLocal(states, cfg)
	p := len(states)
	e := &stepEngine{
		l:      l,
		w:      w,
		states: states,
		sleep:  sleep && !cfg.Dense,
		list:   make([]int32, p),
		norms2: make([]float64, p),
	}
	for i, rs := range states {
		e.list[i] = int32(i)
		e.norms2[i] = rs.norm * rs.norm
	}
	e.faults = cfg.Faults != nil
	if starvation && e.faults {
		e.starve = true
		e.refreshAfter = (cfg.watchdogWindow() + 1) / 2
	}
	if !e.sleep {
		return e
	}
	e.inSet = make([]bool, p)
	e.stay = make([]bool, p)
	e.idleDeg = make([]float64, p)
	for i, rs := range states {
		e.inSet[i] = true // step 1 runs every rank: no hold has been observed yet
		e.idleDeg[i] = float64(rs.rd.Degree())
	}
	e.active = p
	e.hist = make([]int, 0, cfg.steps())
	if e.starve {
		e.calendar = make(map[int][]int32)
	}
	return e
}

// solve is the step driver every method shares. Each step resets the relax
// flags, opens the step, runs the method's phases in order (the first one
// charges a skipped rank its Degree() decision scan), tallies relaxations
// and the global norm, closes the step, and records it; the run stops on
// a watchdog verdict or at the target norm. solve closes the world.
//
//dslint:phasedriver
func (e *stepEngine) solve(method string, cfg Config, phases ...func(rank int)) *Result {
	w := e.w
	defer w.Close()
	res := &Result{Method: method, P: e.l.P, N: e.l.A.N}
	record(res, w, e.states, flatNorm(e.norms2), 0, 0, 0)
	wd := newWatchdog(cfg, w)
	cumRelax := 0
	for e.step = 1; e.step <= cfg.steps(); e.step++ {
		step := e.step
		e.resetRelaxed()
		e.beginStep()
		for i, f := range phases {
			var idle []float64
			if i == 0 {
				idle = e.idleDeg
			}
			e.runPhase(f, idle)
		}
		relaxedRanks, rows := e.tally()
		cumRelax += rows
		e.endStep()
		record(res, w, e.states, flatNorm(e.norms2), step, relaxedRanks, cumRelax)
		e.traceStep()
		if wd.observe(w, step, relaxedRanks) {
			res.deadlockAt(step)
			break
		}
		if cfg.Target > 0 && res.Final().ResNorm <= cfg.Target {
			break
		}
	}
	if e.sleep {
		res.ActiveHist = e.hist
	}
	finish(res, e.l, w, e.states)
	return res
}

// admit ensures rank p executes the step's remaining phases, reconciling
// its lazily-stamped starvation counter on the sleep→active edge so the
// phase-2 refresh test reads exactly the value an always-running rank
// would have accumulated by the end of step-1.
func (e *stepEngine) admit(p int, mail bool) {
	if mail {
		e.stay[p] = true
	}
	if e.inSet[p] {
		return
	}
	e.inSet[p] = true
	e.active++
	e.listDirty = true
	if e.starve {
		// While asleep the rank neither relaxed nor received, so running it
		// would have incremented starved once per step since the stamp.
		rs := e.states[p]
		rs.starved += (e.step - 1) - rs.starveStamp
		rs.starveStamp = e.step - 1
	}
}

// scanMail admits every rank with a nonempty window. Run after every
// delivery boundary: it is what wakes sleepers for landed traffic —
// neighbor sends, chaos-delayed releases, and windows retained across a
// pause all look the same here. A skipped rank never drains its window
// (the next boundary would discard it), so a nonempty window forces
// execution even when every landing is a fault-injected duplicate.
func (e *stepEngine) scanMail() {
	// LiveInboxes is exactly the set of nonempty windows (including windows
	// retained across pauses), so the scan is O(receivers), not O(P).
	for _, p := range e.w.LiveInboxes() {
		e.admit(int(p), true)
	}
}

// beginStep opens a step: fire calendar wakeups due now, wake ranks with
// landed mail, and record the phase-1 active count. Stale calendar entries
// (the rank was woken by mail meanwhile and its clock reset) wake a clean
// rank, which is a bit-identical no-op.
func (e *stepEngine) beginStep() {
	if !e.sleep {
		return
	}
	if due, ok := e.calendar[e.step]; ok {
		delete(e.calendar, e.step)
		for _, p := range due {
			e.admit(int(p), false)
		}
	}
	e.scanMail()
	e.hist = append(e.hist, e.active)
}

// syncList rebuilds the member list from inSet if admissions dirtied it.
// Amortized free: membership grows only at wakeups, so quiescent-heavy
// runs rebuild on the rare step that admits and pay O(members) otherwise.
func (e *stepEngine) syncList() {
	if !e.listDirty {
		return
	}
	e.listDirty = false
	e.list = e.list[:0]
	for p, in := range e.inSet {
		if in {
			e.list = append(e.list, int32(p))
		}
	}
}

// resetRelaxed clears the per-step relax flags on the driving goroutine (a
// rank paused by the fault layer does not execute and must not be counted
// as having relaxed again). Only current members can carry a stale flag: a
// rank is put to sleep only at the end of a step it did not relax in, and
// nothing sets the flag while it sleeps.
func (e *stepEngine) resetRelaxed() {
	e.syncList()
	for _, p := range e.list {
		e.states[p].relaxed = false
	}
}

// tally accumulates the step's relaxed-rank count and row total over the
// member set, refreshing each member's squared-local-norm slot on the way.
// Sleeping ranks need no visit on either count: they cannot hold a relax
// flag, and quiescence means an unchanged norm, so their slot is current.
func (e *stepEngine) tally() (relaxedRanks, rows int) {
	e.syncList()
	for _, p := range e.list {
		rs := e.states[p]
		e.norms2[p] = rs.norm * rs.norm
		if rs.relaxed {
			relaxedRanks++
			rows += rs.rd.M()
		}
	}
	return
}

// runPhase executes one access epoch: over every rank in never-sleep mode,
// else over the active set (idle is the per-rank flop charge of a skipped
// rank; nil for zero-cost phases) followed by a pause check and a window
// rescan. Membership grows monotonically within a step, so a rank reached
// by phase-k traffic runs every later phase, as it would if every rank
// ran.
func (e *stepEngine) runPhase(f func(rank int), idle []float64) {
	if !e.sleep {
		e.w.RunPhase(f)
		return
	}
	e.syncList()
	e.w.RunPhaseActive(e.inSet, e.list, idle, f)
	if e.faults {
		for _, p := range e.list {
			if e.w.Paused(int(p)) {
				e.stay[p] = true
			}
		}
	}
	e.scanMail()
}

// endStep closes a step. Starvation-clocked methods apply the per-step
// starvation rule to the executed ranks (sleepers accumulate lazily via
// the stamp). Executed ranks that changed state stay active; quiescent
// ones go to sleep, booking their starvation refresh wakeup at the first
// step whose phase 2 would fire it.
func (e *stepEngine) endStep() {
	e.syncList() // the post-phase-3 mail scan may have admitted ranks
	if !e.sleep {
		if e.starve {
			for _, rs := range e.states {
				e.countStarved(rs)
			}
		}
		return
	}
	kept := e.list[:0]
	for _, p32 := range e.list {
		p := int(p32)
		rs := e.states[p]
		if e.starve {
			e.countStarved(rs)
		}
		if rs.relaxed || e.stay[p] {
			e.stay[p] = false
			kept = append(kept, p32) // in-place compaction keeps order
			continue                 // state changed: next step's decision must be evaluated
		}
		e.inSet[p] = false
		e.active--
		if e.starve {
			// Refresh fires in phase 2 of step u once starved at the end of
			// u-1 reaches refreshAfter; asleep, starved grows by one per
			// step from its stamped value.
			due := e.step + e.refreshAfter - rs.starved + 1
			if due <= e.step {
				due = e.step + 1
			}
			e.calendar[due] = append(e.calendar[due], int32(p))
		}
	}
	e.list = kept
}

// countStarved applies the starvation rule to a rank that ran this step:
// a step with neither a relaxation nor a receipt extends its starvation.
func (e *stepEngine) countStarved(rs *rankState) {
	if rs.relaxed || rs.gotMsg {
		rs.starved = 0
	} else {
		rs.starved++
	}
	rs.gotMsg = false
	rs.starveStamp = e.step
}

// traceStep mirrors the step's active-set occupancy onto the trace's
// control track (skip rate = sleeping fraction). Never-sleep runs emit
// nothing: no rank is ever skipped.
func (e *stepEngine) traceStep() {
	if !e.sleep {
		return
	}
	tr := e.w.Tracer()
	if tr == nil {
		return
	}
	// e.active has already been shrunk by endStep; the step's phase-1
	// occupancy is the hist entry beginStep recorded.
	p, executing := len(e.states), e.hist[len(e.hist)-1]
	tr.Emit(obs.Event{
		Kind:  obs.KindActiveSet,
		Rank:  obs.ControlRank,
		Step:  int32(e.step),
		A:     int32(executing),
		B:     int32(p - executing),
		V1:    float64(p-executing) / float64(p),
		Ts:    e.w.Now(),
		Phase: e.w.PhaseIndex(),
	})
}
