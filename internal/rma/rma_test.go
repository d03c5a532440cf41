package rma

import (
	"testing"
	"testing/quick"
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
