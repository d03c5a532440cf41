package main

import (
	"time"

	"southwell/internal/obs"
)

// hostStamper is the traced run's tracer. It forwards every event to an
// obs.Recorder, whose tallies give the event counts, and stamps host time
// on the driver's phase and step boundaries: the host time of a phase or
// step is the gap since the previous boundary of the same kind. Those
// events come only from the driving goroutine (obs.Tracer's contract), so
// the stamps need no locking. The program itself never reads the clock.
type hostStamper struct {
	rec             *obs.Recorder
	lastPhase       time.Time
	lastStep        time.Time
	phaseUS, stepUS []float64
}

func newHostStamper(ranks int, phases, steps int64) *hostStamper {
	return &hostStamper{
		// Tallies are exact whatever the ring size; the minimum ring keeps
		// the recorder small at P=8192.
		rec:     obs.NewRecorderCap(ranks, 16),
		phaseUS: make([]float64, 0, phases),
		stepUS:  make([]float64, 0, steps),
	}
}

func (h *hostStamper) Emit(e obs.Event) {
	h.rec.Emit(e)
	if e.Rank != obs.ControlRank {
		return
	}
	switch e.Kind {
	case obs.KindPhase:
		h.phaseUS = stampSince(&h.lastPhase, h.phaseUS)
	case obs.KindStep:
		h.stepUS = stampSince(&h.lastStep, h.stepUS)
	}
}

// stampSince appends the microseconds since *last (skipped for the first
// boundary, which has no predecessor) and moves *last to now.
func stampSince(last *time.Time, out []float64) []float64 {
	now := time.Now()
	if !last.IsZero() {
		out = append(out, float64(now.Sub(*last).Nanoseconds())/1e3)
	}
	*last = now
	return out
}

// tally sums the recorder's per-rank counters.
func (h *hostStamper) tally() (relaxed, held, resSends int64) {
	for p := 0; p < h.rec.Ranks(); p++ {
		t := h.rec.Tally(p)
		relaxed += t.Relaxed
		held += t.Held
		resSends += t.ResSends
	}
	return relaxed, held, resSends
}
