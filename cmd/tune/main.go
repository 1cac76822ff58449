// Command tune runs Spiral's search/learning block for one transform size:
// it tunes the factorization tree with the chosen strategy, reports the
// winning tree, its measured runtime and pseudo-Mflop/s, and (for parallel
// targets) whether and how the multicore Cooley-Tukey split is used.
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"spiralfft/internal/bench"
	"spiralfft/internal/cliopts"
	"spiralfft/internal/metrics"
	"spiralfft/internal/search"
	"spiralfft/internal/smp"
)

func main() {
	var (
		n        = flag.Int("n", 1024, "transform size")
		strategy = flag.String("strategy", "dp", "dp | estimate | exhaustive | random | evolve")
		plan     = cliopts.RegisterPlan(flag.CommandLine)
		timing   = cliopts.RegisterTiming(flag.CommandLine, time.Millisecond)
		trace    = flag.Bool("trace", false, "stream every candidate/winner search event to stderr")
		rank     = flag.Bool("rank", false, "print the analytic cost ranking next to measured times for a size grid")
		sizes    = flag.String("sizes", "256,1024,4096", "comma-separated size grid for -rank")
	)
	flag.Parse()
	p, mu := &plan.Workers, &plan.Mu

	if *rank {
		grid, err := parseSizes(*sizes)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		runRank(grid, timing.Config())
		return
	}

	if *strategy == "evolve" {
		runEvolve(*n, timing.MinTime)
		return
	}
	strat, err := cliopts.ParseStrategy(*strategy)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	tuner := search.NewTuner(strat)
	tuner.Timer = timing.Config()
	if *trace {
		tuner.Trace = metrics.TraceWriter(os.Stderr)
	}

	start := time.Now()
	seq := tuner.BestTree(*n)
	fmt.Printf("size           : %d\n", *n)
	fmt.Printf("strategy       : %s\n", strat)
	fmt.Printf("sequential tree: %s\n", seq.Tree.String())
	fmt.Printf("candidates     : %d\n", seq.Candidates)
	fmt.Printf("seq runtime    : %v  (%.0f pseudo-Mflop/s)\n", seq.Time, bench.PseudoMflops(*n, seq.Time))

	cut := tuner.BestCutoff(*n)
	fmt.Printf("base-case cut  : ≤%d (%s, %v over %d caps)\n",
		cut.Cutoff, cut.Tree.String(), cut.Time, cut.Candidates)

	if *p > 1 {
		pool := smp.NewPool(*p)
		defer pool.Close()
		choice, err := tuner.TuneParallel(*n, *p, *mu, pool, nil)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(1)
		}
		if choice.UsedParallel() {
			fmt.Printf("parallel       : YES, p=%d split %d·%d (left=%s, right=%s)\n",
				*p, choice.Split, *n/choice.Split, choice.Left, choice.Right)
			fmt.Printf("par runtime    : %v  (%.0f pseudo-Mflop/s, speedup %.2fx)\n",
				choice.ParTime, bench.PseudoMflops(*n, choice.ParTime),
				float64(choice.SeqTime)/float64(choice.ParTime))
		} else {
			fmt.Printf("parallel       : no (sequential plan faster or no pµ-admissible split at this size)\n")
			if choice.ParTime > 0 {
				fmt.Printf("best parallel  : %v (not used)\n", choice.ParTime)
			}
		}
		ps := pool.Stats()
		fmt.Printf("pool dispatch  : %d regions (wakeups: %d spin / %d yield / %d park%s)\n",
			ps.Regions, ps.SpinWakeups, ps.YieldWakeups, ps.ParkWakeups,
			map[bool]string{true: ", oversubscribed", false: ""}[ps.Oversubscribed])
	}
	st := tuner.Stats()
	fmt.Printf("search work    : %d searches, %d candidates considered, %d measured\n",
		st.Searches, st.Considered, st.Measured)
	fmt.Printf("tuning took    : %v\n", time.Since(start))
}

func parseSizes(s string) ([]int, error) {
	var out []int
	for _, f := range strings.Split(s, ",") {
		n, err := strconv.Atoi(strings.TrimSpace(f))
		if err != nil || n < 2 {
			return nil, fmt.Errorf("tune: bad size %q in -sizes", f)
		}
		out = append(out, n)
	}
	return out, nil
}

// runRank prints, for each size on the grid, the analytic cost model's full
// candidate ranking side by side with measured runtimes: the shortlist the
// two-stage search would measure is marked, and a divergence note calls out
// any size where the measured-best tree was ranked outside it.
func runRank(grid []int, tc search.TimerConfig) {
	for _, n := range grid {
		tuner := search.NewTuner(search.StrategyDP)
		tuner.Timer = tc
		ranked := tuner.Ranked(n)
		if len(ranked) == 0 {
			fmt.Printf("n=%d: no candidates\n", n)
			continue
		}
		k := tuner.TopK
		if k <= 0 || k > len(ranked) {
			k = len(ranked)
		}
		type row struct {
			model    time.Duration
			measured time.Duration
			tree     string
		}
		rows := make([]row, len(ranked))
		best := 0
		for i, s := range ranked {
			d := tuner.MeasureTree(s.Tree)
			rows[i] = row{model: s.Duration(), measured: d, tree: s.Tree.String()}
			if d < rows[best].measured {
				best = i
			}
		}
		fmt.Printf("n=%d: %d candidates, shortlist = model top-%d (►)\n", n, len(ranked), k)
		for i, r := range rows {
			mark := " "
			if i < k {
				mark = "►"
			}
			note := ""
			if i == best {
				note = "  ← measured best"
			}
			fmt.Printf("%s %3d  model %10v  measured %10v  %s%s\n",
				mark, i+1, r.model.Round(time.Nanosecond), r.measured, r.tree, note)
		}
		if best >= k {
			fmt.Printf("  divergence: measured best ranked #%d, outside the top-%d shortlist\n", best+1, k)
		}
	}
}

// runEvolve runs the STEER-style evolutionary search (paper ref. [24]).
func runEvolve(n int, minTime time.Duration) {
	start := time.Now()
	res := search.Evolve(n, search.EvolveConfig{
		Timer: search.TimerConfig{MinTime: minTime, Repeats: 3},
	})
	fmt.Printf("size           : %d\n", n)
	fmt.Printf("strategy       : evolutionary (STEER-style)\n")
	fmt.Printf("best tree      : %s\n", res.Tree.String())
	fmt.Printf("evaluations    : %d over %d generations\n", res.Evaluations, res.Generations)
	fmt.Printf("runtime        : %v  (%.0f pseudo-Mflop/s)\n", res.Time, bench.PseudoMflops(n, res.Time))
	fmt.Printf("tuning took    : %v\n", time.Since(start))
}
