package dmem

import "southwell/internal/rma"

// Piggyback2016 runs the 2016 precursor of Parallel Southwell (ref [18] of
// the paper): residual norms travel *only* piggybacked on relaxation
// messages; there are no explicit residual updates. When every rank's
// (stale) estimates of its neighbors exceed its own norm, no rank relaxes
// and the state can never change again: the method deadlocks, as the paper
// reports it does on all test problems. The stagnation watchdog (common.go)
// stops the run at the first such step and sets Result.Deadlocked.
func Piggyback2016(l *Layout, b, x []float64, cfg Config) *Result {
	w := newWorld(l, cfg)
	defer w.Close()
	states := newRankStates(l, b, x)
	configureLocal(states, cfg)
	res := &Result{Method: "Piggyback 2016", P: l.P, N: l.A.N}
	record(res, w, states, globalNorm(states), 0, 0, 0)

	// Persistent payloads (pointers cross the network; see blockjacobi.go).
	solvePl := perNeighbor[psSolvePayload](states)

	// absorb drains rank p's window in any phase: deltas always applied,
	// piggybacked norms guarded by the payload sequence number, duplicate
	// landings skipped. The method's one absorbing phase runs it fault-free
	// unchanged; under faults it also picks up late deliveries in phase 1.
	absorb := func(p int) {
		rs := states[p]
		changed := false
		from := senderCursor{rd: rs.rd}
		for _, m := range w.Inbox(p) {
			if m.Dup {
				continue
			}
			pl := m.Payload.(*psSolvePayload)
			j := from.find(int(m.From))
			rs.applyDeltas(j, pl.deltas)
			changed = true
			if pl.seq >= rs.seqSeen[j] {
				rs.seqSeen[j] = pl.seq
				rs.gamma[j] = pl.norm
			}
		}
		if changed {
			rs.norm = rs.computeNorm()
		}
	}

	wd := newWatchdog(cfg, w)
	cumRelax := 0
	for step := 1; step <= cfg.steps(); step++ {
		relaxedRanks := 0
		// Reset relax flags on the driving goroutine: a rank paused by the
		// fault layer does not execute phase 1 and must not be recounted.
		for _, rs := range states {
			rs.relaxed = false
		}
		w.RunPhase(func(p int) {
			absorb(p)
			rs := states[p]
			wins := rs.norm > 0
			for j, q := range rs.rd.Nbrs {
				if !winsOver(rs.norm, p, rs.gamma[j], q) {
					wins = false
					break
				}
			}
			traceDecision(w, step, p, rs, wins)
			if !wins {
				return
			}
			rs.relaxed = true
			rs.zeroExtDelta()
			flops := rs.relaxLocal()
			rs.norm = rs.computeNorm()
			w.Charge(p, flops+2*float64(rs.rd.M()))
			for j, q := range rs.rd.Nbrs {
				pl := &solvePl[p][j]
				pl.deltas = rs.deltasFor(j)
				pl.norm = rs.norm
				pl.seq = 2 * int64(step)
				w.Put(p, q, rma.TagSolve, msgBytes(len(pl.deltas)+1), pl)
			}
		})
		// No explicit residual update phase: norm changes from incoming
		// deltas are never announced. This is the deadlock mechanism.
		w.RunPhase(absorb)
		for p := range states {
			if states[p].relaxed {
				relaxedRanks++
				cumRelax += states[p].rd.M()
			}
		}
		record(res, w, states, globalNorm(states), step, relaxedRanks, cumRelax)
		if wd.observe(w, step, relaxedRanks) {
			// On a perfect network this fires at the first step without
			// relaxations — nothing was sent, so no estimate can ever
			// change; under faults it also waits out in-flight deliveries.
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
