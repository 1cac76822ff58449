package bench

import (
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"spiralfft/internal/machine"
	"spiralfft/internal/search"
	"spiralfft/internal/smp"
)

func fastCfg() Config {
	return Config{
		MinLogN: 6,
		MaxLogN: 9,
		P:       2,
		Mu:      4,
		Timer:   search.TimerConfig{MinTime: 20 * time.Microsecond, Repeats: 1},
	}
}

func TestPseudoMflops(t *testing.T) {
	// 1024 points in 10.24 µs → 5·1024·10/10.24 = 5000.
	got := PseudoMflops(1024, 10240*time.Nanosecond)
	if got < 4999 || got > 5001 {
		t.Errorf("PseudoMflops = %v", got)
	}
	if PseudoMflops(64, 0) != 0 {
		t.Error("zero duration should yield 0")
	}
}

func TestRunMeasuredProducesAllSeries(t *testing.T) {
	res := RunMeasured(fastCfg())
	if len(res.Series) != 5 {
		t.Fatalf("series = %d", len(res.Series))
	}
	for _, s := range res.Series {
		if len(s.Points) != 4 {
			t.Errorf("%s: %d points, want 4", s.Name, len(s.Points))
		}
		for _, p := range s.Points {
			if p.Mflops <= 0 {
				t.Errorf("%s 2^%d: %v Mflop/s", s.Name, p.LogN, p.Mflops)
			}
		}
	}
	for _, name := range []string{"Spiral pthreads", "Spiral OpenMP", "Spiral sequential", "FFTW pthreads", "FFTW sequential"} {
		if _, ok := res.Get(name); !ok {
			t.Errorf("missing series %q", name)
		}
	}
	if _, ok := res.Get("nope"); ok {
		t.Error("Get returned a phantom series")
	}
}

func TestCrossoverFinder(t *testing.T) {
	a := SeriesData{Name: "a", Points: []Point{{6, 50}, {7, 90}, {8, 220}, {9, 400}}}
	b := SeriesData{Name: "b", Points: []Point{{6, 100}, {7, 100}, {8, 100}, {9, 100}}}
	if c := Crossover(a, b, 1.02); c != 8 {
		t.Errorf("Crossover = %d, want 8", c)
	}
	if c := Crossover(b, a, 5.0); c != -1 {
		t.Errorf("Crossover impossible case = %d, want -1", c)
	}
}

func TestRunModeledAllPlatforms(t *testing.T) {
	for _, pl := range machine.Platforms() {
		res := RunModeled(pl, 6, 12)
		if len(res.Series) != 5 {
			t.Fatalf("%s: %d series", pl.Key, len(res.Series))
		}
		for _, s := range res.Series {
			if len(s.Points) != 7 {
				t.Errorf("%s/%s: %d points", pl.Key, s.Name, len(s.Points))
			}
		}
	}
}

func TestRenderings(t *testing.T) {
	res := RunModeled(machine.CoreDuo, 6, 10)
	table := res.Table()
	for _, want := range []string{"log2(N)", "Spiral pthreads", "FFTW sequential", "pseudo Mflop/s"} {
		if !strings.Contains(table, want) {
			t.Errorf("table missing %q:\n%s", want, table)
		}
	}
	csv := res.CSV()
	if !strings.HasPrefix(csv, "log2n,Spiral_pthreads") {
		t.Errorf("csv header wrong: %q", strings.SplitN(csv, "\n", 2)[0])
	}
	if lines := strings.Count(csv, "\n"); lines != 6 {
		t.Errorf("csv lines = %d, want 6", lines)
	}
	chart := res.Chart(12)
	for _, want := range []string{"legend", "P=Spiral pthreads", "log2(N)"} {
		if !strings.Contains(chart, want) {
			t.Errorf("chart missing %q:\n%s", want, chart)
		}
	}
	empty := Result{Title: "empty"}
	if empty.Chart(10) != "(no data)\n" {
		t.Error("empty chart rendering wrong")
	}
}

// TestPoolDispatchCheaperThanSpawn is ablation A1 reduced to its hermetic
// core: the pooled backend's whole purpose is cheaper region dispatch, so a
// no-op parallel region must cost less through the pool than through
// goroutine spawning. Measuring bare dispatch (no FFT work, min-of-trials)
// makes the comparison deterministic on loaded or single-CPU machines where
// the old end-to-end pseudo-Mflop/s comparison (now env-gated below) flaked.
func TestPoolDispatchCheaperThanSpawn(t *testing.T) {
	if testing.Short() {
		t.Skip("timing comparison; skipped in -short")
	}
	const regions, trials = 20, 10
	for _, p := range []int{2, 4} {
		pool := smp.NewPool(p)
		spawn := smp.NewSpawn(p)
		if p > runtime.GOMAXPROCS(0) {
			// More workers than Ps: the pool cannot keep every worker
			// spinning, so its dispatch cost is a scheduler artifact, not a
			// property of the pool. The pool must instead know it is
			// oversubscribed (it then yields and parks rather than spins).
			DispatchCost(pool, regions, 1)
			if st := pool.Stats(); !st.Oversubscribed {
				t.Errorf("p=%d > GOMAXPROCS=%d: pool stats do not report oversubscription: %+v",
					p, runtime.GOMAXPROCS(0), st)
			}
			pool.Close()
			spawn.Close()
			continue
		}
		if raceEnabled {
			pool.Close()
			spawn.Close()
			t.Skip("dispatch-cost comparison is meaningless under the race detector")
		}
		// Interleave short windows of both backends and keep each one's
		// fastest: another process holding the CPUs slows whichever backend
		// it overlaps, and the minimum over many windows discards that. The
		// pool must not lose by more than 20%; unloaded it wins outright
		// (~2-3×), so the margin only absorbs timer noise.
		poolCost := DispatchCost(pool, regions, trials)
		spawnCost := DispatchCost(spawn, regions, trials)
		attempts := 1
		for ; attempts < 20 && float64(poolCost) > 1.2*float64(spawnCost); attempts++ {
			time.Sleep(20 * time.Millisecond)
			poolCost = min(poolCost, DispatchCost(pool, regions, trials))
			spawnCost = min(spawnCost, DispatchCost(spawn, regions, trials))
		}
		st := pool.Stats()
		pool.Close()
		spawn.Close()
		t.Logf("p=%d: pool %v/region, spawn %v/region after %d attempts (pool stats: %+v)",
			p, poolCost, spawnCost, attempts, st)
		if float64(poolCost) > 1.2*float64(spawnCost) {
			t.Errorf("p=%d: pool dispatch %v slower than spawn %v", p, poolCost, spawnCost)
		}
		if want := int64(attempts * (1 + regions*trials)); st.Regions < want {
			t.Errorf("p=%d: pool stats recorded %d regions, want ≥ %d", p, st.Regions, want)
		}
	}
}

// TestMeasuredPoolBeatsSpawnAtSmallSizes is the original end-to-end form of
// ablation A1: full FFT runs through both backends compared in
// pseudo-Mflop/s. End-to-end timing is inherently noisy (single-CPU
// machines, CI load), so it only runs when explicitly requested:
//
//	SPIRALFFT_E2E_POOL_TEST=1 go test ./internal/bench -run PoolBeatsSpawn
func TestMeasuredPoolBeatsSpawnAtSmallSizes(t *testing.T) {
	if os.Getenv("SPIRALFFT_E2E_POOL_TEST") == "" {
		t.Skip("end-to-end timing comparison; set SPIRALFFT_E2E_POOL_TEST=1 to run " +
			"(the hermetic version is TestPoolDispatchCheaperThanSpawn)")
	}
	cfg := fastCfg()
	cfg.Timer = search.TimerConfig{MinTime: 200 * time.Microsecond, Repeats: 3}
	res := RunMeasured(cfg)
	pool, _ := res.Get("Spiral pthreads")
	spawn, _ := res.Get("Spiral OpenMP")
	// Compare the small in-cache sizes; allow 10% noise.
	wins := 0
	for _, logN := range []int{6, 7, 8, 9} {
		if pool.At(logN) >= 0.9*spawn.At(logN) {
			wins++
		}
	}
	if wins < 3 {
		t.Errorf("pool slower than spawn at most small sizes: pool=%v spawn=%v", pool.Points, spawn.Points)
	}
}

// TestChartRaggedSeries is the regression test for the grid sizing bug:
// Chart derived its column count from Series[0], so any later series with
// more points wrote past the grid row (index out of range). Ragged results
// are real — a family that fails to build at one size contributes fewer
// points — and must render, with every series' points in the column of
// their LogN on the longest series' axis.
func TestChartRaggedSeries(t *testing.T) {
	res := Result{
		Title: "ragged",
		Series: []SeriesData{
			{Name: "short", Points: []Point{{6, 100}, {7, 200}}},
			{Name: "long", Points: []Point{{6, 150}, {7, 250}, {8, 350}, {9, 450}}},
		},
	}
	chart := res.Chart(8) // panicked before the fix
	for _, want := range []string{"legend", "9 ", "log2(N)"} {
		if !strings.Contains(chart, want) {
			t.Errorf("chart missing %q:\n%s", want, chart)
		}
	}
	// Table and CSV had the dual bug — rows driven by the first series
	// silently dropped the longer series' extra sizes.
	table := res.Table()
	if !strings.Contains(table, "9") || !strings.Contains(table, "450") {
		t.Errorf("table dropped the long series' rows:\n%s", table)
	}
	if lines := strings.Count(res.CSV(), "\n"); lines != 5 {
		t.Errorf("csv lines = %d, want 5 (header + 4 sizes)", lines)
	}
	// A series whose sizes are absent from the axis is skipped, not
	// misplotted at the wrong column.
	res.Series = append(res.Series, SeriesData{Name: "offaxis", Points: []Point{{20, 999}}})
	if chart := res.Chart(8); !strings.Contains(chart, "legend") {
		t.Errorf("off-axis chart failed to render:\n%s", chart)
	}
}

func TestFFTWThreadCrossover(t *testing.T) {
	r := Result{FFTWThreads: []Point{{8, 1}, {10, 1}, {12, 2}, {14, 2}}}
	if c := r.FFTWThreadCrossover(); c != 12 {
		t.Errorf("crossover = %d, want 12", c)
	}
	if c := (Result{}).FFTWThreadCrossover(); c != -1 {
		t.Errorf("empty crossover = %d, want -1", c)
	}
}

// TestModeledFigure3Golden pins the modeled Figure 3 (experiments E1–E4 and
// E10) byte for byte: the CSV of every paper platform over 2^6..2^20, as
// `go run ./cmd/benchfig3 -platform <key> -max 20 -format csv` prints it.
// The model's false-sharing term comes from the line simulator's analysis of
// the lowered formula (14) programs, so a change anywhere along that path
// shows up here.
func TestModeledFigure3Golden(t *testing.T) {
	for _, pl := range machine.Platforms() {
		want, err := os.ReadFile(filepath.Join("testdata", "fig3_"+pl.Key+".csv"))
		if err != nil {
			t.Fatal(err)
		}
		if got := RunModeled(pl, 6, 20).CSV(); got != string(want) {
			t.Errorf("%s: modeled Figure 3 changed:\n got:\n%s\nwant:\n%s", pl.Key, got, want)
		}
	}
}
