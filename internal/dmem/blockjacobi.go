package dmem

import "southwell/internal/rma"

// bjPayload carries the residual deltas one rank's sweep induces on a
// neighbor's boundary rows.
type bjPayload struct {
	deltas []float64
}

// CloneMessage deep-copies the payload for the fault layer: the sender
// reuses deltas on its next sweep, so a delivery held back past that phase
// must not alias it.
func (pl *bjPayload) CloneMessage() any {
	return &bjPayload{deltas: append([]float64(nil), pl.deltas...)}
}

// BlockJacobi runs Algorithm 1: every parallel step, every rank relaxes its
// subdomain with one local Gauss-Seidel sweep ("hybrid Gauss-Seidel") and
// writes boundary residual deltas to all neighbors; the step's epoch
// completes and every rank absorbs the incoming deltas before the next
// step, so residuals are exact at step boundaries.
func BlockJacobi(l *Layout, b, x []float64, cfg Config) *Result {
	w := newWorld(l, cfg)
	defer w.Close()
	states := newRankStates(l, b, x)
	configureLocal(states, cfg)
	res := &Result{Method: "Block Jacobi", P: l.P, N: l.A.N}
	record(res, w, states, globalNorm(states), 0, 0, 0)

	// Persistent per-(rank, neighbor) payloads: pointers cross the simulated
	// network, so the steady-state message path allocates nothing.
	solvePl := perNeighbor[bjPayload](states)

	// absorb drains rank p's window in any phase: deltas always applied,
	// fault-injected duplicate landings skipped (a real duplicated
	// one-sided write is idempotent). BJ carries no estimates, so there is
	// nothing to guard against staleness.
	absorb := func(p int) {
		rs := states[p]
		from := senderCursor{rd: rs.rd}
		for _, m := range w.Inbox(p) {
			if m.Dup {
				continue
			}
			rs.applyDeltas(from.find(int(m.From)), m.Payload.(*bjPayload).deltas)
		}
	}

	wd := newWatchdog(cfg, w)
	cumRelax := 0
	// BJ's quiescence declaration (engine.go): never quiescent. Every
	// unpaused rank relaxes unconditionally every step, so the active-set
	// engine could never put one to sleep correctly (a paused rank holds
	// with no mail, yet dense BJ relaxes it again the moment it unpauses).
	// The dense RunPhase path IS the active set here, so Config.Dense has
	// no effect on this method.
	for step := 1; step <= cfg.steps(); step++ {
		relaxedRanks := 0
		// Reset relax flags on the driving goroutine: a rank paused by the
		// fault layer skips the sweep phase and must not be recounted.
		for _, rs := range states {
			rs.relaxed = false
		}
		// Relax and write (absorbing any late deliveries first).
		w.RunPhase(func(p int) {
			absorb(p)
			rs := states[p]
			traceDecision(w, step, p, rs, true)
			rs.relaxed = true
			rs.zeroExtDelta()
			flops := rs.relaxLocal()
			w.Charge(p, flops)
			for j, q := range rs.rd.Nbrs {
				pl := &solvePl[p][j]
				pl.deltas = rs.deltasFor(j)
				w.Put(p, q, rma.TagSolve, msgBytes(len(pl.deltas)), pl)
			}
		})
		// Wait for neighbors to finish writing, then read.
		w.RunPhase(func(p int) {
			rs := states[p]
			absorb(p)
			rs.norm = rs.computeNorm()
			w.Charge(p, 2*float64(rs.rd.M()))
		})
		for p := range states {
			if states[p].relaxed {
				relaxedRanks++
				cumRelax += states[p].rd.M()
			}
		}
		record(res, w, states, globalNorm(states), step, relaxedRanks, cumRelax)
		if wd.observe(w, step, relaxedRanks) {
			res.deadlockAt(step)
			break
		}
		if cfg.Target > 0 && res.Final().ResNorm <= cfg.Target {
			break
		}
	}
	finish(res, l, w, states)
	return res
}
