package main

import (
	"fmt"
	"strings"

	"southwell/internal/core"
	"southwell/internal/dmem"
	"southwell/internal/problem"
	"southwell/internal/sparse"
)

// caseInput is one generated system: a matrix in memory plus the
// right-hand side and initial guess every method of the case starts from.
// Cases of one matrix share its setup (partition, layout, NewSetup). The
// workload seed reaches the simulator only through these vectors and the
// partitioner's seed.
type caseInput struct {
	label string
	mat   int // index into inputs.mats
	b, x  []float64
}

type inputs struct {
	mats  []*sparse.CSR
	cases []caseInput // grouped by mat, in mat order
}

// spec is one workload: which systems are generated from the seed, how
// they are distributed and solved, and which of the paper's shape claims
// (DESIGN.md §4) the results must satisfy.
type spec struct {
	name   string
	ranks  int
	steps  int
	target float64 // stop at ‖r‖ ≤ target; 0 runs every step
	// accuracy is the residual norm whose first crossing, interpolated as
	// in Table 2, gives dmem.steps_to_target.
	accuracy float64
	methods  []core.DistMethod
	params   string
	inputs   func(seed int64) inputs
	// shape returns one message per result that breaks a shape claim,
	// keyed like res: res[c][i] is case c solved by methods[i].
	shape func(methods []core.DistMethod, res [][]*dmem.Result) map[[2]int]string
}

var paperMethods = []core.DistMethod{core.BlockJacobi, core.ParallelSWD, core.DistSWD}

// size scales the workloads: full is the benchmark, tiny keeps the same
// structure small enough for unit tests.
type size int

const (
	full size = iota
	tiny
)

// workloads returns the benchmark's workloads in presentation order.
//
//   - suite256 is the paper's Table 2 cell set: many small irregular
//     graphs, setup-heavy, with steps-to-target differing per method. As
//     in bench.Table2, every cell runs the full budget and the crossing
//     of 0.1 is interpolated: stopping at 0.1 would make BJ's work per
//     pass flip between ~10 and 60 steps with the seed, since whether it
//     reaches 0.1 before diverging depends on x0 and the partition.
//   - pointload8192 is a localized residual at scale: almost every
//     rank-step is quiescent and partitioning dominates the pass. Nine
//     point loads on a lattice through the grid center are solved to a
//     fixed accuracy on one setup. A single load run for a fixed step
//     count sends a quarter or more messages under one partition seed
//     than another; averaging loads and stopping at an accuracy (the
//     paper's own measure) keeps the exact metrics steady across seeds.
//   - uniform8192 keeps the active set nearly full at scale: stepping
//     dominates, and active-set or partitioner changes must not move it.
func workloads(sz size) []spec {
	suiteNames := problem.SuiteNames()
	suiteRanks, plGrid, plRanks, plSteps, plTarget, uniRanks := 256, 512, 8192, 400, 0.03, 8192
	if sz == tiny {
		suiteNames = []string{"Hook_1498", "msdoor", "af_5_k101"}
		suiteRanks, plGrid, plRanks, plSteps, plTarget, uniRanks = 16, 32, 64, 60, 0.1, 64
	}
	return []spec{
		{
			name: "suite256", ranks: suiteRanks, steps: 60, accuracy: 0.1, methods: paperMethods,
			params: fmt.Sprintf("%d suite matrices (%s), P=%d, random x0 with b=0 and ||r0||=1, 60 steps, steps to ||r||<=0.1 interpolated, methods bj,ps,ds",
				len(suiteNames), strings.Join(suiteNames, ","), suiteRanks),
			inputs: func(seed int64) inputs {
				var in inputs
				for i, name := range suiteNames {
					ent, _ := problem.SuiteByName(name)
					a := ent.Build()
					b, x := problem.ZeroBSystem(a, seed)
					in.mats = append(in.mats, a)
					in.cases = append(in.cases, caseInput{label: name, mat: i, b: b, x: x})
				}
				return in
			},
			shape: dsReachesTarget,
		},
		{
			name: "pointload8192", ranks: plRanks, steps: plSteps, target: plTarget, accuracy: plTarget, methods: []core.DistMethod{core.DistSWD},
			params: fmt.Sprintf("poisson2d %dx%d scaled, one setup, 9 solves with b=e_k at grid points {n/4,n/2,3n/4}^2 (center first), x0=0, P=%d, stop at ||r||<=%g or %d steps, method ds",
				plGrid, plGrid, plRanks, plTarget, plSteps),
			inputs: func(int64) inputs {
				a := problem.Poisson2D(plGrid, plGrid)
				if _, err := sparse.Scale(a); err != nil {
					panic(fmt.Sprintf("perfbench: scaling poisson2d: %v", err))
				}
				in := inputs{mats: []*sparse.CSR{a}}
				lattice := []int{plGrid / 2, plGrid / 4, 3 * plGrid / 4}
				for _, iy := range lattice {
					for _, ix := range lattice {
						b := make([]float64, a.N)
						b[iy*plGrid+ix] = 1
						in.cases = append(in.cases, caseInput{
							label: fmt.Sprintf("poisson2d@%d,%d", ix, iy), b: b, x: make([]float64, a.N),
						})
					}
				}
				return in
			},
		},
		{
			name: "uniform8192", ranks: uniRanks, steps: 20, accuracy: 0.1, methods: paperMethods,
			params: fmt.Sprintf("Flan_1565, P=%d, random x0 with b=0 and ||r0||=1, 20 steps, methods bj,ps,ds", uniRanks),
			inputs: func(seed int64) inputs {
				ent, _ := problem.SuiteByName("Flan_1565")
				a := ent.Build()
				b, x := problem.ZeroBSystem(a, seed)
				return inputs{mats: []*sparse.CSR{a}, cases: []caseInput{{label: "Flan_1565", b: b, x: x}}}
			},
			shape: msgsOrdered,
		},
	}
}

// workloadByName looks a workload up by name.
func workloadByName(name string, sz size) (spec, bool) {
	for _, w := range workloads(sz) {
		if w.name == name {
			return w, true
		}
	}
	return spec{}, false
}

// dsReachesTarget is Table 2's claim that Distributed Southwell reaches
// ‖r‖ ≤ 0.1 on every suite matrix. BJ and PS may miss the target (the
// paper's †); that is expected and not checked.
func dsReachesTarget(methods []core.DistMethod, res [][]*dmem.Result) map[[2]int]string {
	miss := map[[2]int]string{}
	for c, row := range res {
		for i, r := range row {
			if r == nil || methods[i] != core.DistSWD {
				continue
			}
			if _, ok := r.StepsToNorm(0.1); !ok {
				miss[[2]int{c, i}] = fmt.Sprintf("ds never reached ||r||<=0.1 (final %.3e)", r.Final().ResNorm)
			}
		}
	}
	return miss
}

// msgsOrdered is Table 4's claim that per-step communication orders
// BJ > PS > DS. With a fixed step budget, per-run totals order the same.
func msgsOrdered(methods []core.DistMethod, res [][]*dmem.Result) map[[2]int]string {
	miss := map[[2]int]string{}
	for c, row := range res {
		for i := 1; i < len(row); i++ {
			if row[i-1] == nil || row[i] == nil {
				continue
			}
			if prev, cur := row[i-1].Stats.TotalMsgs(), row[i].Stats.TotalMsgs(); cur >= prev {
				miss[[2]int{c, i}] = fmt.Sprintf("%s sent %d messages, not fewer than %s's %d",
					methods[i], cur, methods[i-1], prev)
			}
		}
	}
	return miss
}
