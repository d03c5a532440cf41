package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"

	"southwell/internal/core"
	"southwell/internal/dmem"
)

// runTiny runs one tiny workload for a single timed pass and decodes its
// result line.
func runTiny(t *testing.T, name string, trace bool, seed int64) (result, string) {
	t.Helper()
	sp, ok := workloadByName(name, tiny)
	if !ok {
		t.Fatalf("no workload %q", name)
	}
	var out bytes.Buffer
	correct, err := benchmark(&out, sp, config{trace: trace, seed: seed})
	if err != nil {
		t.Fatalf("%s: %v\n%s", name, err, out.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v\n%s", name, err, out.String())
	}
	if !correct || !res.Correct || res.Failed != 0 || res.Attempted < 1 {
		t.Fatalf("%s: correct=%v result=%+v\n%s", name, correct, res, out.String())
	}
	return res, out.String()
}

func TestEveryMetricPrintsWithUnit(t *testing.T) {
	for _, w := range workloads(tiny) {
		for _, trace := range []bool{false, true} {
			res, out := runTiny(t, w.name, trace, 3)
			defs := endToEnd
			if trace {
				defs = perLayer
			}
			if len(res.Metrics) != len(defs) {
				t.Errorf("%s trace=%v: %d metrics, want %d", w.name, trace, len(res.Metrics), len(defs))
			}
			for _, d := range defs {
				m, ok := res.Metrics[d.name]
				if !ok || m.Unit != d.unit {
					t.Errorf("%s trace=%v: metric %s = %+v, want unit %q", w.name, trace, d.name, m, d.unit)
				}
			}
			for _, want := range []string{"# perfbench workload=" + w.name, "GOMAXPROCS=", "nproc=", "revision=", "params: ", "failed_frac"} {
				if !strings.Contains(out, want) {
					t.Errorf("%s trace=%v: output lacks %q", w.name, trace, want)
				}
			}
		}
	}
}

func TestExactMetricsRepeat(t *testing.T) {
	for _, w := range workloads(tiny) {
		a, _ := runTiny(t, w.name, true, 5)
		b, _ := runTiny(t, w.name, true, 5)
		for _, k := range []string{"dmem.relax_rows", "rma.solve_msgs", "rma.res_msgs", "rma.bytes", "rma.phases",
			"partition.edge_cut", "dmem.ext_rows", "dmem.nbr_pairs", "trace.res_sends"} {
			if a.Metrics[k] != b.Metrics[k] {
				t.Errorf("%s: %s differs across runs with one seed: %v vs %v", w.name, k, a.Metrics[k], b.Metrics[k])
			}
		}
		c, _ := runTiny(t, w.name, false, 5)
		d, _ := runTiny(t, w.name, false, 5)
		for _, k := range []string{"sim_time_s", "msgs", "steps"} {
			if c.Metrics[k] != d.Metrics[k] {
				t.Errorf("%s: %s differs across runs with one seed: %v vs %v", w.name, k, c.Metrics[k], d.Metrics[k])
			}
		}
	}
}

func TestPerturbedOracleCountsAsFailure(t *testing.T) {
	sp, _ := workloadByName("uniform8192", tiny)
	perturb := map[string]func(r *runner, k cellKey){
		"solution": func(r *runner, k cellKey) {
			ref := *r.oracle[k].res
			ref.X = append([]float64(nil), ref.X...)
			i := len(ref.X) / 2
			ref.X[i] = math.Nextafter(ref.X[i], math.Inf(1))
			r.oracle[k] = oracleCell{res: &ref}
		},
		"history": func(r *runner, k cellKey) {
			ref := *r.oracle[k].res
			ref.History = append(ref.History[:0:0], ref.History...)
			ref.History[1].SolveMsgs++
			r.oracle[k] = oracleCell{res: &ref}
		},
		"stats": func(r *runner, k cellKey) {
			ref := *r.oracle[k].res
			ref.Stats.ResMsgs++
			r.oracle[k] = oracleCell{res: &ref}
		},
	}
	for name, f := range perturb {
		r := &runner{spec: sp, cfg: config{seed: 1}, oracle: map[cellKey]oracleCell{}}
		r.in = sp.inputs(1)
		ps, err := r.fullPass(sp.methods)
		if err != nil {
			t.Fatal(err)
		}
		r.buildOracle(ps.setups, []int{0}, sp.methods, true)
		r.check(ps, "clean")
		if r.gate.failed != 0 {
			t.Fatalf("%s: clean pass failed: %v", name, r.gate.misses)
		}
		f(r, cellKey{0, core.DistSWD})
		r.check(ps, "perturbed")
		if r.gate.failed != 1 || r.gate.attempted != 2*len(sp.methods) {
			t.Errorf("%s: failed %d of %d after perturbing one oracle cell, want 1 of %d",
				name, r.gate.failed, r.gate.attempted, 2*len(sp.methods))
		}
	}
}

func TestShapeMissCountsAsFailure(t *testing.T) {
	sp, _ := workloadByName("uniform8192", tiny)
	r := &runner{spec: sp, cfg: config{seed: 1}, oracle: map[cellKey]oracleCell{}}
	r.in = sp.inputs(1)
	ps, err := r.fullPass(sp.methods)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed method order breaks BJ > PS > DS on every adjacent pair.
	reversed := []core.DistMethod{core.DistSWD, core.ParallelSWD, core.BlockJacobi}
	if miss := msgsOrdered(reversed, [][]*dmem.Result{{ps.results[0][2], ps.results[0][1], ps.results[0][0]}}); len(miss) != 2 {
		t.Errorf("reversed order: %d shape misses, want 2: %v", len(miss), miss)
	}
	if miss := msgsOrdered(sp.methods, ps.results); len(miss) != 0 {
		t.Errorf("paper order: unexpected shape misses %v", miss)
	}
}

// TestBenchmarkJSONMatchesRegistry keeps BENCHMARK.json, which the
// harness reads, in step with the metrics and workloads the code emits.
func TestBenchmarkJSONMatchesRegistry(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bj); err != nil {
		t.Fatal(err)
	}
	ws := workloads(full)
	if len(bj.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, code has %d", len(bj.Workloads), len(ws))
	}
	for i, w := range ws {
		if bj.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json %q, code %q", i, bj.Workloads[i].Name, w.name)
		}
	}
	same := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, code %d", kind, len(got), len(want))
		}
		for i, d := range want {
			if g := got[i]; g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json %+v, code %+v", kind, i, g, d)
			}
		}
	}
	same("end_to_end", bj.EndToEnd, endToEnd)
	same("per_layer", bj.PerLayer, perLayer)
}
