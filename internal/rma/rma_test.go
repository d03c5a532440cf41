package rma

import (
	"runtime"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

func TestPutDeliveredNextPhase(t *testing.T) {
	w := NewWorld(3, CostModel{})
	w.RunPhase(func(rank int) {
		if rank == 0 {
			w.Put(0, 2, TagSolve, 8, "hello")
		}
		if len(w.Inbox(rank)) != 0 {
			t.Errorf("rank %d inbox nonempty before delivery", rank)
		}
	})
	w.RunPhase(func(rank int) {
		in := w.Inbox(rank)
		if rank == 2 {
			if len(in) != 1 || in[0].Payload.(string) != "hello" || in[0].From != 0 {
				t.Errorf("rank 2 inbox = %+v", in)
			}
		} else if len(in) != 0 {
			t.Errorf("rank %d got stray messages", rank)
		}
	})
	// Inboxes cleared at next boundary.
	w.RunPhase(func(rank int) {
		if len(w.Inbox(rank)) != 0 {
			t.Errorf("rank %d inbox not cleared", rank)
		}
	})
}

func TestDeliveryOrderDeterministic(t *testing.T) {
	w := NewWorld(5, CostModel{})
	w.RunPhase(func(rank int) {
		if rank != 1 {
			w.Put(rank, 1, TagSolve, 0, rank)
		}
	})
	w.RunPhase(func(rank int) {
		if rank != 1 {
			return
		}
		in := w.Inbox(1)
		if len(in) != 4 {
			t.Fatalf("got %d messages", len(in))
		}
		for i := 1; i < len(in); i++ {
			if in[i].From < in[i-1].From {
				t.Error("inbox not ordered by origin")
			}
		}
	})
}

func TestStatsTagsAndBytes(t *testing.T) {
	w := NewWorld(2, CostModel{})
	w.RunPhase(func(rank int) {
		if rank == 0 {
			w.Put(0, 1, TagSolve, 100, nil)
			w.Put(0, 1, TagResidual, 16, nil)
		}
	})
	s := w.Stats()
	if s.SolveMsgs != 1 || s.ResMsgs != 1 {
		t.Errorf("msgs = %d/%d", s.SolveMsgs, s.ResMsgs)
	}
	if s.SolveBytes != 100 || s.ResBytes != 16 {
		t.Errorf("bytes = %d/%d", s.SolveBytes, s.ResBytes)
	}
	if s.TotalMsgs() != 2 || s.CommCost(2) != 1 {
		t.Errorf("total=%d comm=%g", s.TotalMsgs(), s.CommCost(2))
	}
	w.ResetStats()
	if w.Stats().TotalMsgs() != 0 || w.Stats().SimTime != 0 {
		t.Error("ResetStats did not clear")
	}
}

func TestCostModelMaxOverRanks(t *testing.T) {
	m := CostModel{Alpha: 1, Beta: 0.5, Gamma: 2}
	w := NewWorld(3, m)
	w.RunPhase(func(rank int) {
		switch rank {
		case 0:
			w.Charge(0, 10) // cost 2*10 = 20
		case 1:
			w.Put(1, 2, TagSolve, 4, nil) // sender cost 1 + 2 = 3; receiver same
		}
	})
	if got := w.Stats().SimTime; got != 20 {
		t.Errorf("SimTime = %g, want 20 (max over ranks)", got)
	}
	w.RunPhase(func(rank int) { w.Charge(rank, 1) })
	if got := w.Stats().SimTime; got != 22 {
		t.Errorf("SimTime = %g, want 22", got)
	}
	// Receive side counts: a rank receiving many messages dominates.
	w2 := NewWorld(4, CostModel{Alpha: 1})
	w2.RunPhase(func(rank int) {
		if rank != 3 {
			w2.Put(rank, 3, TagSolve, 0, nil)
		}
	})
	if got := w2.Stats().SimTime; got != 3 {
		t.Errorf("h-relation SimTime = %g, want 3 (3 landings at rank 3)", got)
	}
	if w.Stats().Phases != 2 {
		t.Errorf("Phases = %d", w.Stats().Phases)
	}
}

func TestPutPanicsOutOfRange(t *testing.T) {
	w := NewWorld(2, CostModel{})
	defer func() {
		if recover() == nil {
			t.Error("Put out of range did not panic")
		}
	}()
	w.RunPhase(func(rank int) {
		if rank == 0 {
			w.Put(0, 7, TagSolve, 0, nil)
		}
	})
}

// Property: sequential and concurrent engines deliver identical message
// streams and identical stats for a randomized communication pattern.
func TestQuickEnginesEquivalent(t *testing.T) {
	f := func(seed int64) bool {
		run := func(parallel bool) ([][]int, Stats) {
			w := NewWorld(8, DefaultCostModel())
			defer w.Close()
			w.Parallel = parallel
			got := make([][]int, 8)
			for phase := 0; phase < 5; phase++ {
				w.RunPhase(func(rank int) {
					for _, m := range w.Inbox(rank) {
						got[rank] = append(got[rank], int(m.From)*1000+m.Payload.(int))
					}
					// Deterministic pseudo-random pattern per (seed, phase, rank).
					h := seed + int64(phase*131) + int64(rank*17)
					for k := 0; k < int(h%4+3)%4; k++ {
						to := int((h + int64(k)*29) % 8)
						if to < 0 {
							to += 8
						}
						w.Put(rank, to, Tag(k%2), k*8, phase*10+k)
						w.Charge(rank, float64(rank+k))
					}
				})
			}
			return got, w.Stats()
		}
		seqGot, seqStats := run(false)
		parGot, parStats := run(true)
		if seqStats != parStats {
			return false
		}
		for r := range seqGot {
			if len(seqGot[r]) != len(parGot[r]) {
				return false
			}
			for i := range seqGot[r] {
				if seqGot[r][i] != parGot[r][i] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Error(err)
	}
}

// Every Put copies a Message into a staging buffer and every landing copies
// it again into a window; keep it at 32 bytes.
func TestMessageSize(t *testing.T) {
	if got := unsafe.Sizeof(Message{}); got != 32 {
		t.Errorf("unsafe.Sizeof(Message{}) = %d, want 32", got)
	}
}

// ringNeighborhoods builds the symmetric ±1 ring: every rank's access group
// is its two ring neighbors.
func ringNeighborhoods(p int) [][]int {
	nbrs := make([][]int, p)
	for r := 0; r < p; r++ {
		a, b := (r+p-1)%p, (r+1)%p
		switch {
		case a == b: // p == 2
			nbrs[r] = []int{a}
		case a < b:
			nbrs[r] = []int{a, b}
		default:
			nbrs[r] = []int{b, a}
		}
	}
	return nbrs
}

// runRingPattern drives a deterministic ring-exchange pattern for the given
// number of phases over a world with registered ring neighborhoods,
// returning the per-rank received-message streams and the final stats.
func runRingPattern(parallel bool, seed int64, p, phases int, plan *FaultPlan) ([][]int64, Stats) {
	w := NewWorld(p, DefaultCostModel())
	w.Parallel = parallel
	w.SetNeighborhoods(ringNeighborhoods(p))
	defer w.Close()
	if plan != nil {
		w.InstallFaults(plan)
	}
	got := make([][]int64, p)
	for phase := 0; phase < phases; phase++ {
		w.RunPhase(func(rank int) {
			for _, m := range w.Inbox(rank) {
				got[rank] = append(got[rank], int64(m.From)*1_000_000+m.Payload.(int64))
			}
			h := seed + int64(phase)*131 + int64(rank)*17
			if h%3 != 0 {
				w.Put(rank, (rank+1)%p, TagSolve, int(h%64), int64(phase)*100+int64(rank))
			}
			if h%5 != 0 {
				w.Put(rank, (rank+p-1)%p, TagResidual, int(h%32), int64(phase)*100+int64(rank)+7)
			}
			w.Charge(rank, float64(h%1000))
		})
	}
	return got, w.Stats()
}

// assertPoolEquivalent fails unless the worker-pool engine reproduces the
// sequential engine's message streams and stats, SimTime included, bit for
// bit on the ring pattern.
func assertPoolEquivalent(t *testing.T, seed int64, p, phases int, plan *FaultPlan) {
	t.Helper()
	refGot, refStats := runRingPattern(false, seed, p, phases, plan)
	got, stats := runRingPattern(true, seed, p, phases, plan)
	if stats != refStats {
		t.Fatalf("p=%d seed=%d stats diverge:\nseq:  %+v\npool: %+v", p, seed, refStats, stats)
	}
	for r := range refGot {
		if len(got[r]) != len(refGot[r]) {
			t.Fatalf("p=%d seed=%d rank %d: got %d msgs, want %d", p, seed, r, len(got[r]), len(refGot[r]))
		}
		for i := range refGot[r] {
			if got[r][i] != refGot[r][i] {
				t.Fatalf("p=%d seed=%d rank %d msg %d: got %d, want %d", p, seed, r, i, got[r][i], refGot[r][i])
			}
		}
	}
}

// The worker-pool engine delivers the same message streams, the same
// stats, and bit-identical SimTime as the sequential engine on worlds with
// registered (degree-sized) windows, including P smaller than the pool.
func TestPoolEngineEquivalent(t *testing.T) {
	for _, p := range []int{2, 3, 8, 33} {
		for _, phases := range []int{6, 12, 18} {
			for seed := int64(1); seed <= 4; seed++ {
				assertPoolEquivalent(t, seed, p, phases, nil)
			}
		}
	}
}

func TestSetNeighborhoodsValidation(t *testing.T) {
	expectPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		f()
	}
	w := NewWorld(4, CostModel{})
	expectPanic("wrong length", func() { w.SetNeighborhoods(make([][]int, 3)) })
	expectPanic("self neighbor", func() {
		w.SetNeighborhoods([][]int{{1}, {1}, {3}, {2}})
	})
	expectPanic("out of range", func() {
		w.SetNeighborhoods([][]int{{4}, {0}, {3}, {2}})
	})
	expectPanic("not ascending", func() {
		w.SetNeighborhoods([][]int{{3, 1}, {0}, {3}, {0, 2}})
	})
	expectPanic("asymmetric", func() {
		w.SetNeighborhoods([][]int{{1}, {0, 2}, {}, {}})
	})
	// A valid symmetric relation (including an isolated rank) is accepted.
	w.SetNeighborhoods([][]int{{1}, {0, 2}, {1}, {}})
}

// SetNeighborhoods sizes every staging buffer and window at the rank's
// degree, so a ring exchange runs allocation-free from its first phase,
// and a Put outside the registered group overflows into its own buffer
// without touching a neighbor's slots.
func TestSetNeighborhoodsSizesWindowsAtDegree(t *testing.T) {
	const p = 8
	w := NewWorld(p, CostModel{})
	w.SetNeighborhoods(ringNeighborhoods(p))
	for r := 0; r < p; r++ {
		if cap(w.staged[r]) != 2 || cap(w.inbox[r]) != 2 {
			t.Fatalf("rank %d: staging cap %d, window cap %d, want 2 and 2", r, cap(w.staged[r]), cap(w.inbox[r]))
		}
	}
	ring := func(rank int) {
		w.Put(rank, (rank+1)%p, TagSolve, 8, nil)
		w.Put(rank, (rank+p-1)%p, TagSolve, 8, nil)
	}
	if got := testing.AllocsPerRun(20, func() { w.RunPhase(ring) }); got != 0 {
		t.Errorf("ring phase on degree-sized windows allocates %.1f allocs/op, want 0", got)
	}
	w.RunPhase(func(rank int) {
		ring(rank)
		if rank == 0 {
			w.Put(0, 4, TagSolve, 8, "far") // outside rank 0's group
		}
	})
	w.RunPhase(func(rank int) {
		want := 2
		if rank == 4 {
			want = 3
		}
		if in := w.Inbox(rank); len(in) != want {
			t.Errorf("rank %d window holds %d messages, want %d", rank, len(in), want)
		}
	})
}

// Close stops every pool worker, stays idempotent, and leaves the world
// failing loudly on further use.
func TestCloseReleasesWorkers(t *testing.T) {
	before := runtime.NumGoroutine()
	w := NewWorld(8, DefaultCostModel())
	w.Parallel = true
	w.SetNeighborhoods(ringNeighborhoods(8))
	w.RunPhase(func(rank int) { w.Put(rank, (rank+1)%8, TagSolve, 8, nil) })
	w.Close()
	w.Close()
	func() {
		defer func() {
			if r := recover(); r != ErrClosed {
				t.Errorf("Put after Close: recover() = %v, want ErrClosed", r)
			}
		}()
		w.Put(0, 1, TagSolve, 8, nil)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutine leak after Close: %d live, want <= %d", runtime.NumGoroutine(), before)
		}
		time.Sleep(2 * time.Millisecond)
	}
}
