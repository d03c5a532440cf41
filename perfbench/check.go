package main

import (
	"fmt"
	"math"

	"southwell/internal/dmem"
	"southwell/internal/sparse"
)

// gate counts the solves a run attempted and those whose output was
// wrong: an error, a result that differs from the sequential dense oracle
// in any bit, or an oracle that itself failed a check.
type gate struct {
	attempted, failed int
	misses            []string // first few failure messages, for the report
}

// record counts one attempted solve and whether it failed.
func (g *gate) record(what string, err error) {
	g.attempted++
	if err == nil {
		return
	}
	g.failed++
	if len(g.misses) < 10 {
		g.misses = append(g.misses, fmt.Sprintf("%s: %v", what, err))
	}
}

// sameResult requires two runs to agree bit for bit: history, stats and
// gathered solution. The engines are bit-identical by design (DESIGN.md
// §2), so the oracle comparison tolerates nothing.
func sameResult(got, want *dmem.Result) error {
	if len(got.History) != len(want.History) {
		return fmt.Errorf("history has %d steps, oracle %d", len(got.History), len(want.History))
	}
	for i := range want.History {
		if got.History[i] != want.History[i] {
			return fmt.Errorf("step %d differs: %+v, oracle %+v", i, got.History[i], want.History[i])
		}
	}
	if got.Stats != want.Stats {
		return fmt.Errorf("stats differ: %+v, oracle %+v", got.Stats, want.Stats)
	}
	if len(got.X) != len(want.X) {
		return fmt.Errorf("solution has %d entries, oracle %d", len(got.X), len(want.X))
	}
	for i := range want.X {
		if math.Float64bits(got.X[i]) != math.Float64bits(want.X[i]) {
			return fmt.Errorf("solution differs at row %d", i)
		}
	}
	return nil
}

// residualAgrees recomputes ‖b − A·x‖₂ from the gathered solution and
// requires it to match the residual norm the run reported for its last
// step, so a solution that does not solve what the history claims fails.
func residualAgrees(a *sparse.CSR, b []float64, res *dmem.Result) error {
	if len(res.X) != a.N {
		return fmt.Errorf("solution has %d entries, want %d", len(res.X), a.N)
	}
	got := a.ResidualNorm2(b, res.X, make([]float64, a.N))
	want := res.Final().ResNorm
	if !(math.Abs(got-want) <= 1e-8*math.Max(1, math.Abs(want))) {
		return fmt.Errorf("recomputed ||b-Ax|| = %.17g, run reported %.17g", got, want)
	}
	return nil
}
