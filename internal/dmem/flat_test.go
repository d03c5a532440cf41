package dmem

import (
	"testing"

	"southwell/internal/problem"
)

// TestSolveAllocsIndependentOfP guards the flat per-solve state: rank
// state, payloads, staging buffers and windows are carved from a fixed
// number of arrays sized from the layout, so the allocations of one solve
// do not grow with the rank count.
func TestSolveAllocsIndependentOfP(t *testing.T) {
	const slack = 4 // History growth and the like; independent of P
	for _, m := range []struct {
		name string
		run  method
	}{
		{"BlockJacobi", BlockJacobi},
		{"DistributedSouthwell", DistributedSouthwell},
	} {
		allocs := func(p int) float64 {
			l, b, x := buildCase(t, problem.Poisson2D(96, 96), p, 1)
			cfg := Config{Steps: 10}
			return testing.AllocsPerRun(2, func() { m.run(l, b, x, cfg) })
		}
		few, many := allocs(64), allocs(1024)
		if d := many - few; d > slack || d < -slack {
			t.Errorf("%s: %v allocations per solve at P=1024, %v at P=64; want within %d",
				m.name, many, few, slack)
		}
	}
}

// TestSenderCursor checks the map-free sender lookup against NbrPos on the
// delivery orders a window can see: ascending origin order (every
// neighbor, or a subset), reordered batches, duplicated landings, and a
// delayed message arriving ahead of a fresh batch.
func TestSenderCursor(t *testing.T) {
	rd := &RankData{P: 5, Nbrs: []int{1, 3, 4, 8, 9}}
	for q, want := range map[int]int{1: 0, 3: 1, 4: 2, 8: 3, 9: 4, 0: -1, 2: -1, 5: -1, 10: -1} {
		if got := rd.NbrPos(q); got != want {
			t.Errorf("NbrPos(%d) = %d, want %d", q, got, want)
		}
	}
	for name, senders := range map[string][]int{
		"in-order":   {1, 3, 4, 8, 9},
		"subset":     {3, 8, 9},
		"reordered":  {9, 1, 8, 3, 4},
		"duplicated": {1, 1, 3, 4, 4, 9, 9},
		"delayed":    {8, 1, 3, 4, 8, 9},
	} {
		c := senderCursor{rd: rd}
		for i, q := range senders {
			if got, want := c.find(q), rd.NbrPos(q); got != want || rd.Nbrs[got] != q {
				t.Errorf("%s: message %d from %d resolved to %d, want %d", name, i, q, got, want)
			}
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a message from a non-neighbor did not panic")
		}
	}()
	c := senderCursor{rd: rd}
	c.find(2)
}
