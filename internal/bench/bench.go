// Package bench is the experiment harness that regenerates the paper's
// evaluation (Figure 3 and the quantified claims of Sections 1 and 4).
//
// Two data sources feed the same reporting pipeline:
//
//   - RunMeasured: real wall-clock measurements on the host machine, running
//     the five series of Figure 3 (Spiral pthreads/OpenMP/sequential, FFTW
//     pthreads/sequential) over a log2-size sweep;
//   - RunModeled: the analytic platform model of internal/machine for the
//     paper's four machines (Core Duo, Opteron, Pentium D, Xeon MP).
//
// Output is the paper's pseudo-Mflop/s metric, 5·N·log2(N)/t[µs], rendered
// as a table, an ASCII chart (one per Figure-3 subplot), or CSV.
package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"spiralfft/internal/baseline"
	"spiralfft/internal/complexvec"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/machine"
	"spiralfft/internal/search"
	"spiralfft/internal/smp"
)

// PseudoMflops converts a runtime into the paper's metric.
func PseudoMflops(n int, d time.Duration) float64 {
	if d <= 0 {
		return 0
	}
	return exec.FlopCount(n) / (float64(d.Nanoseconds()) / 1000.0)
}

// Point is one (log2 size, performance) sample.
type Point struct {
	LogN   int
	Mflops float64
}

// SeriesData is one line of a Figure-3 subplot.
type SeriesData struct {
	Name   string
	Points []Point
}

// At returns the series value at logN (0 if absent).
func (s SeriesData) At(logN int) float64 {
	for _, p := range s.Points {
		if p.LogN == logN {
			return p.Mflops
		}
	}
	return 0
}

// Result is a full subplot: five series over a size sweep.
type Result struct {
	Title  string
	Series []SeriesData
	// FFTWThreads records, per logN, how many threads the FFTW-style
	// planner actually chose (measured runs only) — the paper's "FFTW
	// starts using the second processor at ..." is read off this.
	FFTWThreads []Point
}

// Get returns the named series.
func (r Result) Get(name string) (SeriesData, bool) {
	for _, s := range r.Series {
		if s.Name == name {
			return s, true
		}
	}
	return SeriesData{}, false
}

// HostSweeps is the number of host sweeps cmd/crossover and cmd/benchfig3
// take the per-point Median of: one sweep's point moves from run to run on
// a shared host.
const HostSweeps = 5

// Median returns the per-point median of runs of the same sweep: each
// series point and each FFTW-style thread count is the middle value of the
// runs' (the upper middle for an even count). The runs must list the same
// series and sizes in the same order.
func Median(runs []Result) Result {
	out := Result{Title: runs[0].Title}
	mid := func(pick func(r Result) float64) float64 {
		v := make([]float64, len(runs))
		for i, r := range runs {
			v[i] = pick(r)
		}
		sort.Float64s(v)
		return v[len(v)/2]
	}
	for s, series := range runs[0].Series {
		m := SeriesData{Name: series.Name}
		for i, p := range series.Points {
			m.Points = append(m.Points, Point{p.LogN, mid(func(r Result) float64 { return r.Series[s].Points[i].Mflops })})
		}
		out.Series = append(out.Series, m)
	}
	for i, p := range runs[0].FFTWThreads {
		out.FFTWThreads = append(out.FFTWThreads, Point{p.LogN, mid(func(r Result) float64 { return r.FFTWThreads[i].Mflops })})
	}
	return out
}

// Crossover returns the smallest logN at which series a exceeds series b by
// the given factor (e.g. 1.02 for "2% faster"), or -1 if never.
func Crossover(a, b SeriesData, factor float64) int {
	for _, p := range a.Points {
		vb := b.At(p.LogN)
		if vb > 0 && p.Mflops > factor*vb {
			return p.LogN
		}
	}
	return -1
}

// FFTWThreadCrossover returns the smallest measured logN at which the
// FFTW-style planner chose more than one thread, or -1 if it never did.
func (r Result) FFTWThreadCrossover() int {
	for _, p := range r.FFTWThreads {
		if p.Mflops > 1 {
			return p.LogN
		}
	}
	return -1
}

// Config controls a measured run.
type Config struct {
	// MinLogN and MaxLogN bound the sweep (inclusive); defaults 6 and 16.
	MinLogN, MaxLogN int
	// P is the worker count for the parallel series (default 2).
	P int
	// Mu is the cache-line length in complex elements (default 4).
	Mu int
	// Timer configures the measurements.
	Timer search.TimerConfig
	// Tune selects measured-DP tree tuning for the Spiral series (slower
	// planning, faster plans). Default: fixed radix trees.
	Tune bool
	// Verbose, when set, receives progress lines.
	Verbose func(format string, args ...any)
}

func (c Config) withDefaults() Config {
	if c.MinLogN == 0 {
		c.MinLogN = 6
	}
	if c.MaxLogN == 0 {
		c.MaxLogN = 16
	}
	if c.P == 0 {
		c.P = 2
	}
	if c.Mu == 0 {
		c.Mu = 4
	}
	if c.Verbose == nil {
		c.Verbose = func(string, ...any) {}
	}
	return c
}

// RunMeasured measures the five Figure-3 series on the host.
func RunMeasured(cfg Config) Result {
	cfg = cfg.withDefaults()
	tuner := search.NewTuner(search.StrategyDP)
	tuner.Timer = cfg.Timer
	// Tree policy: fixed greedy radix by default (the library default), or
	// measured-DP tuning with -tune.
	treeFor := func(n int) *exec.Tree {
		if cfg.Tune {
			return tuner.BestTree(n).Tree
		}
		return exec.RadixTree(n)
	}

	res := Result{Title: fmt.Sprintf("host, p=%d, µ=%d", cfg.P, cfg.Mu)}
	series := map[string]*SeriesData{}
	names := []string{"Spiral pthreads", "Spiral OpenMP", "Spiral sequential", "FFTW pthreads", "FFTW sequential"}
	for _, n := range names {
		series[n] = &SeriesData{Name: n}
	}

	pool := smp.NewPool(cfg.P)
	defer pool.Close()
	spawn := smp.NewSpawn(cfg.P)

	for logN := cfg.MinLogN; logN <= cfg.MaxLogN; logN++ {
		n := 1 << uint(logN)
		x := complexvec.Random(n, uint64(n))
		y := make([]complex128, n)

		seq := exec.MustNewSeq(treeFor(n))
		scratch := seq.NewScratch()
		dSeq := search.Measure(func() { seq.Transform(y, x, scratch) }, cfg.Timer)
		series["Spiral sequential"].Points = append(series["Spiral sequential"].Points, Point{logN, PseudoMflops(n, dSeq)})

		// Parallel Spiral plans (raw parallel performance at fixed p, so the
		// crossover with the sequential line is visible, as in Figure 3).
		for _, bk := range []struct {
			name    string
			backend smp.Backend
		}{{"Spiral pthreads", pool}, {"Spiral OpenMP", spawn}} {
			mflops := 0.0
			if m, ok := exec.SplitFor(n, cfg.P, cfg.Mu); ok {
				prog, err := ir.LowerCT(n, m, ir.CTConfig{
					P: cfg.P, Mu: cfg.Mu, LeftTree: treeFor(m), RightTree: treeFor(n / m),
				})
				var pl *ir.Executor
				if err == nil {
					pl, err = ir.NewExecutor(prog, bk.backend)
				}
				if err == nil {
					d := search.Measure(func() { pl.Transform(y, x) }, cfg.Timer)
					mflops = PseudoMflops(n, d)
				}
			} else {
				// No admissible split: the best "parallel" library can do is
				// run its sequential plan.
				mflops = PseudoMflops(n, dSeq)
			}
			series[bk.name].Points = append(series[bk.name].Points, Point{logN, mflops})
		}

		// FFTW-like series: sequential, and best-of-threads (its planner
		// decides, like the paper's bench protocol).
		fwSeq, err := baseline.NewFFTWLike(n, baseline.FFTWConfig{MaxThreads: 1})
		if err == nil {
			d := search.Measure(func() { fwSeq.Transform(y, x) }, cfg.Timer)
			series["FFTW sequential"].Points = append(series["FFTW sequential"].Points, Point{logN, PseudoMflops(n, d)})
			fwSeq.Close()
		}
		fwPar, err := baseline.NewFFTWLike(n, baseline.FFTWConfig{MaxThreads: cfg.P, Mode: baseline.ModeMeasure})
		if err == nil {
			d := search.Measure(func() { fwPar.Transform(y, x) }, cfg.Timer)
			series["FFTW pthreads"].Points = append(series["FFTW pthreads"].Points, Point{logN, PseudoMflops(n, d)})
			res.FFTWThreads = append(res.FFTWThreads, Point{logN, float64(fwPar.Threads())})
			fwPar.Close()
		}
		cfg.Verbose("measured 2^%d", logN)
	}
	for _, name := range names {
		res.Series = append(res.Series, *series[name])
	}
	return res
}

// RunModeled evaluates the analytic platform model over the sweep.
func RunModeled(pl machine.Platform, minLogN, maxLogN int) Result {
	res := Result{Title: pl.Name}
	for _, s := range machine.AllSeries() {
		sd := SeriesData{Name: s.String()}
		for logN := minLogN; logN <= maxLogN; logN++ {
			sd.Points = append(sd.Points, Point{logN, pl.Predict(s, logN)})
		}
		res.Series = append(res.Series, sd)
	}
	return res
}

// longest returns the series with the most points. Rendering is driven by
// it rather than Series[0]: the series of a measured run can be ragged (a
// family that failed to build at some size contributes fewer points), and
// sizing the output off the first series either dropped rows (Table, CSV)
// or wrote past the grid (Chart) when a later series was longer.
func (r Result) longest() SeriesData {
	var best SeriesData
	for _, s := range r.Series {
		if len(s.Points) > len(best.Points) {
			best = s
		}
	}
	return best
}

// DispatchCost times one no-op parallel region through a backend, returning
// the best (minimum) per-region time over trials — min is robust against
// scheduler hiccups, which is what made end-to-end comparisons flaky. Both
// the hermetic A1 test and benchsnap's dispatch-cost metric read it.
func DispatchCost(b smp.Backend, regions, trials int) time.Duration {
	noop := func(int) {}
	b.Run(noop) // warm up (pool workers may still be parking for the first region)
	best := time.Duration(1 << 62)
	for t := 0; t < trials; t++ {
		start := time.Now()
		for i := 0; i < regions; i++ {
			b.Run(noop)
		}
		if d := time.Since(start) / time.Duration(regions); d < best {
			best = d
		}
	}
	return best
}

// Table renders the result as an aligned text table (sizes down, series
// across), like the data behind one Figure-3 subplot.
func (r Result) Table() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s (pseudo Mflop/s = 5·N·log2(N)/t[µs]; higher is better)\n", r.Title)
	fmt.Fprintf(&b, "%-8s", "log2(N)")
	for _, s := range r.Series {
		fmt.Fprintf(&b, "%-20s", s.Name)
	}
	b.WriteString("\n")
	for _, p := range r.longest().Points {
		fmt.Fprintf(&b, "%-8d", p.LogN)
		for _, s := range r.Series {
			fmt.Fprintf(&b, "%-20.0f", s.At(p.LogN))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// CSV renders the result as comma-separated values with a header row.
func (r Result) CSV() string {
	var b strings.Builder
	b.WriteString("log2n")
	for _, s := range r.Series {
		fmt.Fprintf(&b, ",%s", strings.ReplaceAll(s.Name, " ", "_"))
	}
	b.WriteString("\n")
	for _, p := range r.longest().Points {
		fmt.Fprintf(&b, "%d", p.LogN)
		for _, s := range r.Series {
			fmt.Fprintf(&b, ",%.1f", s.At(p.LogN))
		}
		b.WriteString("\n")
	}
	return b.String()
}

// Chart renders an ASCII line chart of the result, one mark per series.
func (r Result) Chart(height int) string {
	if height < 5 {
		height = 16
	}
	marks := []byte{'P', 'O', 's', 'F', 'f'}
	maxV := 0.0
	for _, s := range r.Series {
		for _, p := range s.Points {
			if p.Mflops > maxV {
				maxV = p.Mflops
			}
		}
	}
	if maxV == 0 || len(r.Series) == 0 {
		return "(no data)\n"
	}
	// The x-axis comes from the longest series; each point maps to the
	// column of its LogN, so ragged series neither shift nor overflow the
	// grid (points at a size the axis lacks are skipped).
	axis := r.longest()
	cols := len(axis.Points)
	if cols == 0 {
		return "(no data)\n"
	}
	colOf := make(map[int]int, cols)
	for ci, p := range axis.Points {
		colOf[p.LogN] = ci
	}
	colW := 4
	grid := make([][]byte, height)
	for i := range grid {
		grid[i] = []byte(strings.Repeat(" ", cols*colW))
	}
	for si, s := range r.Series {
		mark := marks[si%len(marks)]
		for _, p := range s.Points {
			ci, ok := colOf[p.LogN]
			if !ok {
				continue
			}
			row := int((p.Mflops / maxV) * float64(height-1))
			if row < 0 {
				row = 0
			}
			r := height - 1 - row
			c := ci*colW + colW/2
			if grid[r][c] == ' ' {
				grid[r][c] = mark
			} else {
				grid[r][c] = '*'
			}
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "%s  (peak %.0f pseudo-Mflop/s; * = overlap)\n", r.Title, maxV)
	for _, row := range grid {
		b.WriteString("  |")
		b.Write(row)
		b.WriteString("\n")
	}
	b.WriteString("  +" + strings.Repeat("-", cols*colW) + "\n   ")
	for _, p := range axis.Points {
		fmt.Fprintf(&b, "%-*d", colW, p.LogN)
	}
	b.WriteString(" log2(N)\n  legend: ")
	for si, s := range r.Series {
		fmt.Fprintf(&b, "%c=%s  ", marks[si%len(marks)], s.Name)
	}
	b.WriteString("\n")
	return b.String()
}
