// Fixture: a miniature of the real rma runtime — the phase engine surface
// phaseabsorb inspects.
package rma

// Message is one landed Put.
type Message struct {
	From    int
	Payload any
}

// World is the mini runtime.
type World struct{ P int }

// RunPhase executes one access epoch.
func (w *World) RunPhase(f func(rank int)) {
	for p := 0; p < w.P; p++ {
		f(p)
	}
}

// RunPhaseActive executes one access epoch over the ranks with active[p]
// set.
func (w *World) RunPhaseActive(active []bool, list []int32, idle []float64, f func(rank int)) {
	for p := 0; p < w.P; p++ {
		if active == nil || active[p] {
			f(p)
		}
	}
}

// Inbox returns the messages delivered to rank at the last boundary.
func (w *World) Inbox(rank int) []Message { return nil }
