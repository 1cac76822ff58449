// Command crossover reproduces the paper's headline claim (experiment E7):
// Spiral's pooled parallel code profits from the second processor at sizes
// as small as 2^8 (in-L1, under 10,000 cycles on the paper's machines),
// whereas the FFTW-style strategy (fresh threads per transform, µ-oblivious
// block-cyclic loops) needs sizes beyond 2^13.
//
// It measures the break-even size on the host, from the per-size medians of
// several sweeps, and evaluates the model for the paper's four machines,
// printing both next to the paper's numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"spiralfft/internal/bench"
	"spiralfft/internal/machine"
	"spiralfft/internal/search"
)

func main() {
	var (
		p       = flag.Int("p", runtime.NumCPU(), "workers for host measurement")
		mu      = flag.Int("mu", 4, "cache-line length µ")
		minLogN = flag.Int("min", 6, "smallest size as log2(N)")
		maxLogN = flag.Int("max", 16, "largest size as log2(N)")
		minTime = flag.Duration("mintime", 2*time.Millisecond, "minimum measuring time per point")
	)
	flag.Parse()

	fmt.Println("Parallelization break-even (first N with ≥2% speedup over the library's own sequential plan)")
	fmt.Println()
	fmt.Printf("%-28s %-18s %-18s\n", "configuration", "Spiral (pooled)", "FFTW-style (spawn)")

	// Modeled paper platforms.
	for _, pl := range machine.Platforms() {
		res := bench.RunModeled(pl, 6, 20)
		fmt.Printf("%-28s %-18s %-18s\n", pl.Name, cross(res, "Spiral pthreads", "Spiral sequential"),
			cross(res, "FFTW pthreads", "FFTW sequential"))
	}

	// Host measurement: the median of bench.HostSweeps sweeps at every
	// size, series point and FFTW-style thread count alike.
	fmt.Fprintf(os.Stderr, "\nmeasuring host (p=%d, %d sweeps)...\n", *p, bench.HostSweeps)
	runs := make([]bench.Result, bench.HostSweeps)
	for i := range runs {
		runs[i] = bench.RunMeasured(bench.Config{
			MinLogN: *minLogN, MaxLogN: *maxLogN, P: *p, Mu: *mu,
			Timer: search.TimerConfig{MinTime: *minTime, Repeats: 3},
		})
	}
	res := bench.Median(runs)
	fftw := "none in range"
	if c := res.FFTWThreadCrossover(); c >= 0 {
		fftw = fmt.Sprintf("2^%d", c)
	}
	fmt.Printf("%-28s %-18s %-18s\n", fmt.Sprintf("host (measured, p=%d)", *p),
		cross(res, "Spiral pthreads", "Spiral sequential"), fftw)
	fmt.Printf("(host row: per-size medians of %d sweeps; host FFTW column: first size at\n", bench.HostSweeps)
	fmt.Println(" which the FFTW-style planner measured a second thread as profitable and")
	fmt.Println(" enabled it)")

	fmt.Println()
	fmt.Println("Paper (Section 4): Spiral speeds up from N = 2^8 (Core Duo, in-L1, <10k cycles);")
	fmt.Println("FFTW uses a second thread only beyond N = 2^13 (>500k cycles), and on the")
	fmt.Println("4-processor Opteron reaches 4 threads only at N = 2^20 vs Spiral's N = 2^9.")
}

func cross(res bench.Result, par, seq string) string {
	a, _ := res.Get(par)
	b, _ := res.Get(seq)
	c := bench.Crossover(a, b, 1.02)
	if c < 0 {
		return "none in range"
	}
	return fmt.Sprintf("2^%d", c)
}
