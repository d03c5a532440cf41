package a

import "internal/rma"

// engine mirrors dmem's step engine: methods hand their phase functions to
// one shared step driver instead of looping over RunPhase themselves.
type engine struct {
	w      *rma.World
	active []bool
}

// solve is the shared step driver. Its body forwards the callers' phase
// functions, so the RunPhaseActive call in its loop is not checked here.
//
//dslint:phasedriver
func (e *engine) solve(steps int, phases ...func(rank int)) {
	for step := 0; step < steps; step++ {
		for _, f := range phases {
			e.w.RunPhaseActive(e.active, nil, nil, f)
		}
	}
}

// driven mirrors distsw.go on the driver: every phase drains, directly,
// through absorb, or by name.
func driven(e *engine, steps int) {
	absorb := func(p int) {
		_ = e.w.Inbox(p)
	}
	phase1 := func(p int) {
		absorb(p)
		// decide, relax, write updates ...
	}
	e.solve(steps, phase1, func(p int) {
		absorb(p)
		// deadlock-risk detection ...
	}, absorb)
}

// drivenLeaky mirrors a method whose read phase forgot to absorb: only that
// argument is reported.
func drivenLeaky(e *engine, steps int) {
	absorb := func(p int) {
		_ = e.w.Inbox(p)
	}
	relax := func(p int) {
		absorb(p)
	}
	read := func(p int) {
		// recompute the norm without absorbing
	}
	e.solve(steps, relax, read) // want `phase function passed to step driver solve never drains the inbox`
}

// activeLoop runs RunPhaseActive in its own step loop without draining.
func activeLoop(w *rma.World, active []bool, steps int) {
	for step := 0; step < steps; step++ {
		w.RunPhaseActive(active, nil, nil, func(p int) { // want `RunPhaseActive in a step loop with a phase function that never drains the inbox`
		})
	}
}
