// Command perfbench is the repository's benchmark: one closed-loop workload
// per run, measured end to end, or layer by layer with --trace 1.
//
//	perfbench --workload incache-p2 --seed 1 --seconds 20 --trace 0
//	perfbench --repeat 5 --seed 1 --seconds 20
//
// A run prints human-readable detail (the plans, per-kind latencies) on
// standard error and, as the last line of standard output, one JSON object:
// {"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
// The metrics are the end-to-end ones, or with --trace 1 the per-layer ones;
// BENCHMARK.json at the repository root declares both sets. --repeat runs
// every workload repeatedly in child processes and prints each end-to-end
// metric's spread. README.md describes the workloads and the metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"strings"
	"time"
)

func main() {
	if name := os.Getenv(setupEnv); name != "" {
		if err := setupChild(name); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench set-up:", err)
			os.Exit(1)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// A report is the run's result line.
type report struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	name := fs.String("workload", "", "workload to run: "+strings.Join(names, ", "))
	seed := fs.Uint64("seed", 1, "seed of the inputs and the op schedule")
	seconds := fs.Float64("seconds", 20, "length of the measured window")
	trace := fs.Int("trace", 0, "1 measures the per-layer metrics instead of the end-to-end ones")
	repeat := fs.Int("repeat", 0, "run every workload this many times, seeds seed, seed+1, …, and print each metric's spread")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	window := time.Duration(*seconds * float64(time.Second))
	if *repeat > 0 {
		if err := repeatRuns(*repeat, *seed, *seconds, stdout, stderr); err != nil {
			fmt.Fprintln(stderr, "perfbench:", err)
			return 1
		}
		return 0
	}
	w, err := lookupWorkload(*name)
	if err != nil || window <= 0 || *trace < 0 || *trace > 1 {
		fmt.Fprintln(stderr, "perfbench: need --workload (one of "+strings.Join(names, ", ")+"), --seconds > 0 and --trace 0|1")
		return 2
	}
	measure := endToEnd
	if *trace == 1 {
		measure = traceRun
	}
	metrics, t, err := measure(w, *seed, window, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	rep := report{Correct: t.failed == 0 && t.attempted > 0, Attempted: t.attempted, Failed: t.failed, Metrics: map[string]value{}}
	for _, m := range metrics {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			fmt.Fprintf(stderr, "perfbench: metric %s was not measured (%v)\n", m.name, m.value)
			return 1
		}
		rep.Metrics[m.name] = value{m.value, m.unit}
	}
	data, err := json.Marshal(rep)
	if err != nil {
		fmt.Fprintln(stderr, "perfbench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(data))
	return 0
}
