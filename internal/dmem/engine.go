package dmem

import (
	"southwell/internal/obs"
	"southwell/internal/rma"
)

// Active-set step engine (DESIGN.md §14). Distributed and Parallel
// Southwell relax only local residual-norm maxima, so at paper scale most
// ranks spend most steps provably idle: empty window, unchanged state, and
// a decision that a replay of last step's hold. The engine tracks exactly
// that quiescence and dispatches each phase over the active subset through
// rma.RunPhaseActive, charging sleepers their unconditional phase-1 flops
// (the Degree() decision scan) through the idle vector so simulated time,
// message statistics, and chaos schedules stay bit-identical to dense
// stepping.
//
// The quiescence invariant: a rank may sleep only after an executed step
// in which it did not relax and read no mail. Its state is then unchanged
// since a step in which it held, and every step function is deterministic
// in (state, inbox), so dense stepping would reproduce that hold — and its
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
// Methods declare their own quiescence rules by how they drive the engine:
// DS (starvation stamps + wakeup calendar under chaos), PS (no starvation
// clock), BJ (never quiescent — every rank relaxes unconditionally every
// step, so it stays on the dense RunPhase path by construction).

// stepEngine tracks the active set for one run. All fields are touched
// only on the driving goroutine, between phases.
type stepEngine struct {
	w      *rma.World
	states []*rankState
	dense  bool // run every rank's phases every step (Config.Dense, or the method opted out)

	starve       bool // DS under chaos: starvation stamps + wakeup calendar
	refreshAfter int

	inSet   []bool    // rank executes the current step's remaining phases
	sawMail []bool    // rank's window was nonempty at a boundary this step
	idleDeg []float64 // phase-1 idle charge: the unconditional Degree() scan
	// list mirrors inSet as an ascending member list — the O(active) view
	// every per-step walk (phase dispatch, flag reset, norm tally, sleep
	// scan) runs over instead of all P. Admissions mark it dirty and
	// syncList rebuilds it lazily, so the O(P) rebuild is paid only on
	// steps where membership grew; endStep compacts removals in place.
	list      []int32
	listDirty bool
	// calendar maps a future step to the ranks whose starvation refresh
	// first fires there. Consumed by exact-key lookup at beginStep, never
	// iterated, so map order cannot influence the run.
	calendar map[int][]int32

	active int   // current membership count, maintained by admit/endStep
	hist   []int // per-step phase-1 active counts → Result.ActiveHist
}

// newStepEngine builds the engine for one run. starvation marks methods
// with a starvation re-announce clock (DS); it matters only under a fault
// plan, mirroring the dense drivers' `chaotic` guard.
func newStepEngine(w *rma.World, states []*rankState, cfg Config, starvation bool) *stepEngine {
	e := &stepEngine{w: w, states: states}
	if cfg.Dense {
		e.dense = true
		return e
	}
	p := len(states)
	e.inSet = make([]bool, p)
	e.sawMail = make([]bool, p)
	e.idleDeg = make([]float64, p)
	e.list = make([]int32, p)
	for i, rs := range states {
		e.inSet[i] = true // step 1 runs densely: no hold has been observed yet
		e.idleDeg[i] = float64(rs.rd.Degree())
		e.list[i] = int32(i)
	}
	e.active = p
	e.hist = make([]int, 0, cfg.steps())
	if starvation && cfg.Faults != nil {
		e.starve = true
		e.refreshAfter = (cfg.watchdogWindow() + 1) / 2
		e.calendar = make(map[int][]int32)
	}
	return e
}

// admit ensures rank p executes the step's remaining phases, reconciling
// its lazily-stamped starvation counter on the sleep→active edge so the
// phase-2 refresh test reads exactly the value dense stepping would have
// accumulated by the end of step-1.
func (e *stepEngine) admit(p, step int, mail bool) {
	if mail {
		e.sawMail[p] = true
	}
	if e.inSet[p] {
		return
	}
	e.inSet[p] = true
	e.active++
	e.listDirty = true
	if e.starve {
		// While asleep the rank neither relaxed nor received, so dense
		// stepping would have incremented starved once per step since the
		// stamp.
		rs := e.states[p]
		rs.starved += (step - 1) - rs.starveStamp
		rs.starveStamp = step - 1
	}
}

// scanMail admits every rank with a nonempty window. Run after every
// delivery boundary: it is what wakes sleepers for landed traffic —
// neighbor sends, chaos-delayed releases, and windows retained across a
// pause all look the same here. A skipped rank never drains its window
// (the next boundary would discard it), so a nonempty window forces
// execution even when every landing is a fault-injected duplicate.
func (e *stepEngine) scanMail(step int) {
	// LiveInboxes is exactly the set of nonempty windows (including windows
	// retained across pauses), so the scan is O(receivers), not O(P).
	for _, p := range e.w.LiveInboxes() {
		e.admit(int(p), step, true)
	}
}

// beginStep opens a step: fire calendar wakeups due now, wake ranks with
// landed mail, and record the phase-1 active count. Stale calendar entries
// (the rank was woken by mail meanwhile and its clock reset) wake a clean
// rank, which is a bit-identical no-op.
func (e *stepEngine) beginStep(step int) {
	if due, ok := e.calendar[step]; ok {
		delete(e.calendar, step)
		for _, p := range due {
			e.admit(int(p), step, false)
		}
	}
	e.scanMail(step)
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

// resetRelaxed clears the per-step relax flags. Only current members can
// carry a stale flag: a rank is put to sleep only at the end of a step it
// did not relax in, and nothing sets the flag while it sleeps — so the
// dense O(P) pointer walk shrinks to the member list.
func (e *stepEngine) resetRelaxed() {
	e.syncList()
	for _, p := range e.list {
		e.states[p].relaxed = false
	}
}

// tally accumulates the step's relaxed-rank count and row total over the
// member set, refreshing each member's squared-local-norm slot on the way
// (norms2 feeds the flat global-norm sum, see flatNorm). Sleeping ranks
// need no visit on either count: they cannot hold a relax flag, and
// quiescence means an unchanged norm, so their slot is already current.
func (e *stepEngine) tally(norms2 []float64) (relaxedRanks, rows int) {
	e.syncList()
	for _, p := range e.list {
		rs := e.states[p]
		norms2[p] = rs.norm * rs.norm
		if rs.relaxed {
			relaxedRanks++
			rows += rs.rd.M()
		}
	}
	return
}

// runPhase executes one access epoch over the active set (idle is the
// per-rank flop charge dense stepping would make for a skipped rank; nil
// for zero-cost phases), then rescans windows: membership grows
// monotonically within a step, so a rank reached by phase-k traffic runs
// every later phase exactly as dense stepping would.
func (e *stepEngine) runPhase(step int, f func(rank int), idle []float64) {
	e.syncList()
	e.w.RunPhaseActive(e.inSet, e.list, idle, f)
	e.scanMail(step)
}

// endStep closes a step: executed ranks that changed state stay active,
// quiescent ones go to sleep. For starvation-clocked methods it also
// applies the dense per-step starvation rule to executed ranks (sleepers
// accumulate lazily via the stamp) and schedules the sleeper's refresh
// wakeup at the first step whose phase 2 would fire it.
func (e *stepEngine) endStep(step int) {
	e.syncList() // the post-phase-3 mail scan may have admitted ranks
	kept := e.list[:0]
	for _, p32 := range e.list {
		p := int(p32)
		rs := e.states[p]
		if e.starve {
			if rs.relaxed || rs.gotMsg {
				rs.starved = 0
			} else {
				rs.starved++
			}
			rs.gotMsg = false
			rs.starveStamp = step
		}
		if rs.relaxed || e.sawMail[p] {
			e.sawMail[p] = false
			kept = append(kept, p32) // in-place compaction keeps order
			continue                 // state changed: next step's decision must be evaluated
		}
		e.inSet[p] = false
		e.active--
		if e.starve {
			// Refresh fires in phase 2 of step u once starved at the end of
			// u-1 reaches refreshAfter; asleep, starved grows by one per
			// step from its stamped value.
			due := step + e.refreshAfter - rs.starved + 1
			if due <= step {
				due = step + 1
			}
			e.calendar[due] = append(e.calendar[due], int32(p))
		}
	}
	e.list = kept
}

// traceStep mirrors the step's active-set occupancy onto the trace's
// control track (skip rate = sleeping fraction). Dense runs emit nothing:
// there is no engine to observe.
func (e *stepEngine) traceStep(step int) {
	if e.dense {
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
		Step:  int32(step),
		A:     int32(executing),
		B:     int32(p - executing),
		V1:    float64(p-executing) / float64(p),
		Ts:    e.w.Now(),
		Phase: e.w.PhaseIndex(),
	})
}
