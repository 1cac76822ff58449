// Command benchfig3 regenerates Figure 3 of the paper: pseudo-Mflop/s of
// the five DFT series (Spiral pthreads / Spiral OpenMP / Spiral sequential /
// FFTW pthreads / FFTW sequential) over sizes 2^min .. 2^max.
//
// Two modes:
//
//	-platform host                measure on this machine (real wall clock):
//	                              per-size medians of bench.HostSweeps sweeps
//	-platform coreduo|opteron|pentiumd|xeonmp|all
//	                              evaluate the analytic model of the paper's
//	                              machine (hardware substitution; DESIGN.md)
//
// Output: -format table (default), chart (ASCII Figure-3 subplot), or csv.
// -crossover additionally prints the parallelization break-even sizes.
// -quick shrinks the host sweep to a seconds-long smoke run (2^6..2^10, short
// timer), and -stats appends a JSON observability snapshot (pool dispatch
// counters, plan-cache counters, per-family transform aggregates) — the CI
// artifact that tracks dispatch health across commits.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"time"

	"spiralfft"
	"spiralfft/internal/bench"
	"spiralfft/internal/cliopts"
	"spiralfft/internal/machine"
)

func main() {
	var (
		platform  = flag.String("platform", "all", "host | coreduo | opteron | pentiumd | xeonmp | all")
		minLogN   = flag.Int("min", 6, "smallest size as log2(N)")
		maxLogN   = flag.Int("max", 16, "largest size as log2(N)")
		plan      = cliopts.RegisterPlan(flag.CommandLine)
		timing    = cliopts.RegisterTiming(flag.CommandLine, 2*time.Millisecond)
		tune      = flag.Bool("tune", false, "use measured-DP tree tuning for the Spiral series (host mode)")
		format    = flag.String("format", "table", "table | chart | csv")
		crossover = flag.Bool("crossover", false, "report parallelization break-even sizes")
		quick     = flag.Bool("quick", false, "smoke-run preset: sizes 2^6..2^10, 200µs timer (host mode)")
		stats     = flag.Bool("stats", false, "append a JSON observability snapshot (pools, cache, transforms)")
	)
	flag.Parse()
	p, mu := &plan.Workers, &plan.Mu

	if *quick {
		*minLogN, *maxLogN = 6, 10
		timing.MinTime = 200 * time.Microsecond
	}

	var results []bench.Result
	switch *platform {
	case "host":
		fmt.Fprintf(os.Stderr, "measuring on host (%d workers, µ=%d, 2^%d..2^%d, %d sweeps)...\n", *p, *mu, *minLogN, *maxLogN, bench.HostSweeps)
		cfg := bench.Config{
			MinLogN: *minLogN, MaxLogN: *maxLogN, P: *p, Mu: *mu, Tune: *tune,
			Timer:   timing.Config(),
			Verbose: func(f string, a ...any) { fmt.Fprintf(os.Stderr, f+"\n", a...) },
		}
		runs := make([]bench.Result, bench.HostSweeps)
		for i := range runs {
			runs[i] = bench.RunMeasured(cfg)
		}
		results = append(results, bench.Median(runs))
	case "all":
		for _, pl := range machine.Platforms() {
			results = append(results, bench.RunModeled(pl, *minLogN, *maxLogN))
		}
	default:
		pl, ok := machine.ByKey(*platform)
		if !ok {
			fmt.Fprintf(os.Stderr, "unknown platform %q\n", *platform)
			os.Exit(2)
		}
		results = append(results, bench.RunModeled(pl, *minLogN, *maxLogN))
	}

	for _, res := range results {
		switch *format {
		case "chart":
			fmt.Print(res.Chart(16))
		case "csv":
			fmt.Print(res.CSV())
		default:
			fmt.Print(res.Table())
		}
		if *crossover {
			printCrossovers(res)
		}
		fmt.Println()
	}
	if *stats {
		printStats()
	}
}

// printStats emits the process-wide observability snapshot as JSON: every
// pool the benchmark created (the measured series construct and close one
// per point), the plan cache, and the per-family transform aggregates.
func printStats() {
	snap := struct {
		Pools      spiralfft.AggregatePoolStats
		Cache      spiralfft.CacheStats
		Transforms map[string]spiralfft.TransformStats
	}{
		Pools:      spiralfft.PoolTotals(),
		Cache:      spiralfft.DefaultCache().Stats(),
		Transforms: spiralfft.TransformTotals(),
	}
	out, err := json.MarshalIndent(snap, "", "  ")
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return
	}
	fmt.Printf("observability snapshot:\n%s\n", out)
}

func printCrossovers(res bench.Result) {
	seq, _ := res.Get("Spiral sequential")
	fwSeq, _ := res.Get("FFTW sequential")
	for _, name := range []string{"Spiral pthreads", "Spiral OpenMP"} {
		s, _ := res.Get(name)
		report(name, bench.Crossover(s, seq, 1.02))
	}
	fw, _ := res.Get("FFTW pthreads")
	report("FFTW pthreads", bench.Crossover(fw, fwSeq, 1.02))
}

func report(name string, logN int) {
	if logN < 0 {
		fmt.Printf("  %-16s: no parallel speedup in range\n", name)
		return
	}
	fmt.Printf("  %-16s: parallel speedup from N = 2^%d\n", name, logN)
}
