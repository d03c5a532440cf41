// Command perfbench is the repository's benchmark. It runs one named
// workload of the Distributed Southwell simulator as a closed loop of
// back-to-back passes for a fixed time, checks every solve against a
// sequential dense oracle, and prints the metrics as one JSON line:
//
//	bash perfbench/run.sh --workload suite256 --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the line carries the end-to-end metrics; with --trace 1
// it carries the per-layer metrics, which add a traced pass, a
// worker-pool pass and, where the workload times fewer than three
// methods, one run of each missing method. Comment lines before it give the provenance and a readable
// table. The exit code is nonzero when any solve was wrong; the result
// line is still printed.
package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

func main() {
	workload := flag.String("workload", "", "workload name: suite256, pointload8192 or uniform8192")
	seed := flag.Int64("seed", 1, "seed for the generated inputs (initial guesses and partitions)")
	seconds := flag.Int("seconds", 10, "measure closed-loop passes for this many seconds (at least one pass)")
	trace := flag.Int("trace", 0, "1 reports the per-layer metrics instead of the end-to-end ones")
	flag.Parse()
	sp, ok := workloadByName(*workload, full)
	if !ok || *seconds < 0 || (*trace != 0 && *trace != 1) || flag.NArg() > 0 {
		fmt.Fprintf(os.Stderr, "perfbench: bad arguments (workload %q, seconds %d, trace %d)\n", *workload, *seconds, *trace)
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{seconds: float64(*seconds), trace: *trace == 1, seed: *seed}
	correct, err := benchmark(os.Stdout, sp, cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	if !correct {
		os.Exit(1)
	}
}

// result is the final output line.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// benchmark runs one invocation and writes the provenance header, the
// readable table and the result line to w. It reports whether every
// solve was correct.
func benchmark(w io.Writer, sp spec, cfg config) (bool, error) {
	writeProvenance(w, sp, cfg)
	rep, g, err := run(sp, cfg)
	if err != nil {
		return false, err
	}
	defs := endToEnd
	if cfg.trace {
		defs = perLayer
	}
	out := result{Correct: g.failed == 0, Attempted: g.attempted, Failed: g.failed, Metrics: map[string]metricValue{}}
	fmt.Fprintf(w, "# %d timed passes (median; min..max across passes where shown)\n", rep.passes)
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		v, ok := rep.metrics[d.name]
		if !ok {
			continue
		}
		line := fmt.Sprintf("# %-26s %14.6g %-5s", d.name, v, d.unit)
		if s, ok := rep.spreads[d.name]; ok {
			line += fmt.Sprintf("  [%.6g .. %.6g]", s[0], s[1])
		}
		fmt.Fprintln(w, line)
	}
	fmt.Fprintf(w, "# %-26s %14.6g %-5s  (%d of %d solves)\n", "failed_frac",
		float64(g.failed)/float64(g.attempted), "1", g.failed, g.attempted)
	for _, k := range []string{"partition.s", "setup_s", "solve_s"} {
		if v, ok := rep.shares[k]; ok {
			fmt.Fprintf(w, "# share of total_s: %-12s %.3f\n", k, v)
		}
	}
	for _, m := range g.misses {
		fmt.Fprintf(w, "# FAILED %s\n", m)
	}
	for _, d := range defs {
		v, ok := rep.metrics[d.name]
		if !ok || math.IsNaN(v) || math.IsInf(v, 0) {
			return false, fmt.Errorf("metric %s was not measured (value %v)", d.name, v)
		}
		out.Metrics[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	line, err := json.Marshal(out)
	if err != nil {
		return false, err
	}
	fmt.Fprintln(w, string(line))
	return out.Correct, nil
}

// writeProvenance prints what produced the numbers: toolchain, host
// parallelism, code revision, seed, workload parameters and tracing.
func writeProvenance(w io.Writer, sp spec, cfg config) {
	tracing := "off"
	if cfg.trace {
		tracing = "on"
	}
	fmt.Fprintf(w, "# perfbench workload=%s seed=%d seconds=%g tracing=%s\n", sp.name, cfg.seed, cfg.seconds, tracing)
	fmt.Fprintf(w, "# %s %s/%s GOMAXPROCS=%d nproc=%d\n",
		runtime.Version(), runtime.GOOS, runtime.GOARCH, runtime.GOMAXPROCS(0), runtime.NumCPU())
	fmt.Fprintf(w, "# revision=%s source_sha256=%s\n", revision(), sourceDigest())
	fmt.Fprintf(w, "# params: %s; engine: sequential active-set stepping, GS local solver\n", sp.params)
}

// revision is the git commit the binary was built from, when the build
// saw one; a source checkout without git history has none.
func revision() string {
	info, ok := debug.ReadBuildInfo()
	if !ok {
		return "unknown"
	}
	rev, dirty := "unknown", ""
	for _, s := range info.Settings {
		switch s.Key {
		case "vcs.revision":
			rev = s.Value
		case "vcs.modified":
			if s.Value == "true" {
				dirty = "+modified"
			}
		}
	}
	return rev + dirty
}

// sourceDigest hashes the simulator's sources (go.mod and internal/,
// relative to the working directory, which is the repository root), so
// numbers from a checkout without git history still name their code.
func sourceDigest() string {
	h := sha256.New()
	files := []string{"go.mod"}
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") {
			files = append(files, path)
		}
		return err
	})
	if err != nil {
		return "unavailable"
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			return "unavailable"
		}
		fmt.Fprintf(h, "%s %d\n", f, len(data))
		h.Write(data)
	}
	return hex.EncodeToString(h.Sum(nil))[:16]
}
