// Benchmarks regenerating the paper's evaluation on the host machine.
//
// Figure 3 (experiments E1–E4, measured counterpart): BenchmarkFig3 runs the
// five series — Spiral pthreads (pooled workers + spin barriers), Spiral
// OpenMP (spawned goroutines), Spiral sequential, FFTW pthreads (the
// FFTW-style baseline with its own threading decision), FFTW sequential —
// across log2 sizes. Every result reports the paper's pseudo-Mflop/s metric
// (5·N·log2(N)/t[µs]) alongside ns/op; who wins at which size and where the
// parallel series branch off the sequential ones is the reproduced shape.
// The modeled counterpart for the paper's four machines is
// `go run ./cmd/benchfig3 -platform all`.
//
// Ablations: A1 pool-vs-spawn dispatch (the thread-pooling effect), A2
// block-vs-cyclic scheduling (the µ-aware false-sharing effect), A3
// fixed-radix-vs-tuned trees (the search effect), plus the six-step
// algorithm (rule (3)) against the multicore Cooley-Tukey FFT.
package spiralfft_test

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"spiralfft"
	"spiralfft/internal/baseline"
	"spiralfft/internal/bench"
	"spiralfft/internal/complexvec"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/search"
	"spiralfft/internal/smp"
)

// fig3LogNs are the measured sweep points (cmd/benchfig3 extends to 2^20).
var fig3LogNs = []int{6, 8, 10, 12, 14, 16}

const benchP = 2 // parallel worker count for the host benchmarks

// multicoreCT compiles the formula (14) program for split n = m·(n/m) on bk
// — the executor a parallel Plan runs.
func multicoreCT(b *testing.B, n, m int, sched ir.Schedule, bk smp.Backend) *ir.Executor {
	b.Helper()
	prog, err := ir.LowerCT(n, m, ir.CTConfig{P: benchP, Mu: 4, Schedule: sched})
	if err != nil {
		b.Fatal(err)
	}
	e, err := ir.NewExecutor(prog, bk)
	if err != nil {
		b.Fatal(err)
	}
	return e
}

// reportPseudo attaches the paper's metric to a benchmark result.
func reportPseudo(b *testing.B, n int) {
	perOp := float64(b.Elapsed().Nanoseconds()) / float64(b.N) / 1000.0 // µs
	if perOp > 0 {
		b.ReportMetric(exec.FlopCount(n)/perOp, "pseudo-Mflop/s")
	}
}

// BenchmarkFig3 is the measured Figure-3 sweep: five series × sizes.
func BenchmarkFig3(b *testing.B) {
	for _, logN := range fig3LogNs {
		n := 1 << uint(logN)
		x := complexvec.Random(n, uint64(n))
		y := make([]complex128, n)

		b.Run(fmt.Sprintf("SpiralSeq/logN=%d", logN), func(b *testing.B) {
			s := exec.MustNewSeq(exec.RadixTree(n))
			scratch := s.NewScratch()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Transform(y, x, scratch)
			}
			reportPseudo(b, n)
		})

		for _, backend := range []string{"Pool", "Spawn"} {
			name := "SpiralPthreads"
			if backend == "Spawn" {
				name = "SpiralOpenMP"
			}
			b.Run(fmt.Sprintf("%s/logN=%d", name, logN), func(b *testing.B) {
				m, ok := exec.SplitFor(n, benchP, 4)
				if !ok {
					b.Skip("no pµ-admissible split")
				}
				var bk smp.Backend
				if backend == "Pool" {
					bk = smp.NewPool(benchP)
				} else {
					bk = smp.NewSpawn(benchP)
				}
				defer bk.Close()
				pl := multicoreCT(b, n, m, ir.ScheduleBlock, bk)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pl.Transform(y, x)
				}
				reportPseudo(b, n)
			})
		}

		b.Run(fmt.Sprintf("FFTWSeq/logN=%d", logN), func(b *testing.B) {
			fw, err := baseline.NewFFTWLike(n, baseline.FFTWConfig{MaxThreads: 1})
			if err != nil {
				b.Fatal(err)
			}
			defer fw.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fw.Transform(y, x)
			}
			reportPseudo(b, n)
		})

		b.Run(fmt.Sprintf("FFTWPthreads/logN=%d", logN), func(b *testing.B) {
			fw, err := baseline.NewFFTWLike(n, baseline.FFTWConfig{MaxThreads: benchP, Mode: baseline.ModeMeasure})
			if err != nil {
				b.Fatal(err)
			}
			defer fw.Close()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				fw.Transform(y, x)
			}
			reportPseudo(b, n)
		})
	}
}

// BenchmarkAblationBackend (A1): the same multicore plan dispatched through
// the pooled spin-barrier backend versus spawned goroutines. The gap is the
// thread-pooling effect that moves the parallelization crossover.
func BenchmarkAblationBackend(b *testing.B) {
	for _, logN := range []int{8, 10, 12, 14} {
		n := 1 << uint(logN)
		m, ok := exec.SplitFor(n, benchP, 4)
		if !ok {
			continue
		}
		x := complexvec.Random(n, 9)
		y := make([]complex128, n)
		for _, kind := range []string{"pool", "spawn"} {
			b.Run(fmt.Sprintf("%s/logN=%d", kind, logN), func(b *testing.B) {
				var bk smp.Backend
				if kind == "pool" {
					bk = smp.NewPool(benchP)
				} else {
					bk = smp.NewSpawn(benchP)
				}
				defer bk.Close()
				pl := multicoreCT(b, n, m, ir.ScheduleBlock, bk)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pl.Transform(y, x)
				}
				reportPseudo(b, n)
			})
		}
	}
}

// BenchmarkAblationSchedule (A2): block (µ-aware, derived by the rewriting
// system) versus cyclic (µ-oblivious) iteration scheduling of the same
// two-stage plan. The cyclic schedule interleaves processors within cache
// lines (the cachesim tests count the conflicts); here the cost is measured.
func BenchmarkAblationSchedule(b *testing.B) {
	for _, logN := range []int{10, 12, 14} {
		n := 1 << uint(logN)
		m, ok := exec.SplitFor(n, benchP, 4)
		if !ok {
			continue
		}
		x := complexvec.Random(n, 9)
		y := make([]complex128, n)
		for _, sched := range []ir.Schedule{ir.ScheduleBlock, ir.ScheduleCyclic} {
			b.Run(fmt.Sprintf("%s/logN=%d", sched, logN), func(b *testing.B) {
				pool := smp.NewPool(benchP)
				defer pool.Close()
				pl := multicoreCT(b, n, m, sched, pool)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					pl.Transform(y, x)
				}
				reportPseudo(b, n)
			})
		}
	}
}

// BenchmarkAblationPlanner (A3): the fixed greedy radix tree versus the
// measured-DP tuned tree — the value of Spiral's search.
func BenchmarkAblationPlanner(b *testing.B) {
	tuner := search.NewTuner(search.StrategyDP)
	for _, logN := range []int{10, 14} {
		n := 1 << uint(logN)
		x := complexvec.Random(n, 9)
		y := make([]complex128, n)
		trees := map[string]*exec.Tree{
			"radix": exec.RadixTree(n),
			"tuned": tuner.BestTree(n).Tree,
		}
		for _, kind := range []string{"radix", "tuned"} {
			b.Run(fmt.Sprintf("%s/logN=%d", kind, logN), func(b *testing.B) {
				s := exec.MustNewSeq(trees[kind])
				scratch := s.NewScratch()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Transform(y, x, scratch)
				}
				reportPseudo(b, n)
			})
		}
	}
}

// BenchmarkSixStepVsMulticoreCT compares the traditional six-step FFT (rule
// (3), explicit transposition passes) against the multicore Cooley-Tukey
// FFT (formula (14), permutations folded into strides) — the algorithmic
// contrast the paper draws in Section 3.2.
func BenchmarkSixStepVsMulticoreCT(b *testing.B) {
	for _, logN := range []int{10, 12, 14} {
		n := 1 << uint(logN)
		m, ok := exec.SplitFor(n, benchP, 4)
		if !ok {
			continue
		}
		x := complexvec.Random(n, 9)
		y := make([]complex128, n)
		b.Run(fmt.Sprintf("multicoreCT/logN=%d", logN), func(b *testing.B) {
			pool := smp.NewPool(benchP)
			defer pool.Close()
			pl := multicoreCT(b, n, m, ir.ScheduleBlock, pool)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl.Transform(y, x)
			}
			reportPseudo(b, n)
		})
		b.Run(fmt.Sprintf("sixstep/logN=%d", logN), func(b *testing.B) {
			pool := smp.NewPool(benchP)
			defer pool.Close()
			six, err := baseline.NewSixStep(n, m, benchP, pool)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				six.Transform(y, x)
			}
			reportPseudo(b, n)
		})
	}
}

// BenchmarkPublicAPI measures the user-facing entry points, including the
// planning-amortized steady state the paper's pseudo-Mflop/s numbers assume.
func BenchmarkPublicAPI(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opts *spiralfft.Options
	}{
		{"sequential", nil},
		{"parallel2", &spiralfft.Options{Workers: benchP}},
	} {
		for _, logN := range []int{8, 12, 16} {
			n := 1 << uint(logN)
			b.Run(fmt.Sprintf("%s/logN=%d", cfg.name, logN), func(b *testing.B) {
				p, err := spiralfft.NewPlan(n, cfg.opts)
				if err != nil {
					b.Fatal(err)
				}
				defer p.Close()
				x := complexvec.Random(n, 3)
				y := make([]complex128, n)
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := p.Forward(y, x); err != nil {
						b.Fatal(err)
					}
				}
				reportPseudo(b, n)
			})
		}
	}
}

// TestFig3ShapeOnHost is the measured counterpart of the Figure-3 shape
// checks (kept as a test so `go test` exercises the claims, with generous
// tolerances because CI machines are noisy).
func TestFig3ShapeOnHost(t *testing.T) {
	if testing.Short() {
		t.Skip("measured shape check skipped in -short mode")
	}
	// `go test ./...` runs other packages' test binaries concurrently, and
	// CI hosts time-share vCPUs. When two goroutines cannot actually run in
	// parallel during the sweep, no schedule can show a speedup — so
	// calibrate per attempt and only *fail* if a genuinely parallel attempt
	// still shows no speedup; otherwise skip. A probe that finds the host
	// busy does not use up a sweep: the test keeps probing, with a short
	// pause, for up to hostWait so the concurrently running packages can
	// finish and free the second vCPU.
	const hostWait = 45 * time.Second
	deadline := time.Now().Add(hostWait)
	var lastErr string
	sawParallelHost := false
	for attempt := 0; attempt < 5; {
		if s := hostParallelism(); s < 1.6 {
			lastErr = fmt.Sprintf("host parallelism only %.2f after %d sweeps", s, attempt)
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(200 * time.Millisecond)
			continue
		}
		attempt++
		res := bench.RunMeasured(bench.Config{
			MinLogN: 8, MaxLogN: 14, P: benchP, Mu: 4,
			Timer: search.TimerConfig{MinTime: 2 * time.Millisecond, Repeats: 3},
		})
		spSeq, _ := res.Get("Spiral sequential")
		fwSeq, _ := res.Get("FFTW sequential")
		pool, _ := res.Get("Spiral pthreads")

		lastErr = ""
		// E8: the two sequential libraries run within a modest factor of
		// each other (the paper reports 10%; we allow harness noise).
		for _, logN := range []int{8, 10, 12} {
			r := spSeq.At(logN) / fwSeq.At(logN)
			if r < 0.6 || r > 1.8 {
				lastErr = fmt.Sprintf("sequential ratio at 2^%d: %.2f", logN, r)
			}
		}
		// E7 shape: the pooled parallel plan achieves a real speedup
		// somewhere in the sweep (dual-core host).
		won := false
		for _, logN := range []int{10, 11, 12, 13, 14} {
			if pool.At(logN) > 1.15*spSeq.At(logN) {
				won = true
			}
		}
		if !won {
			lastErr = fmt.Sprintf("pooled parallel plan never beat sequential by 15%%: pool=%v seq=%v",
				pool.Points, spSeq.Points)
		}
		if lastErr == "" {
			return
		}
		// The sweep failed: only hold it against the library if the host
		// still offers real parallelism (the vCPU may have vanished
		// mid-sweep on shared infrastructure).
		if hostParallelism() >= 1.6 {
			sawParallelHost = true
		}
	}
	if !sawParallelHost {
		t.Skipf("host never offered real 2-way parallelism during the test (%s); skipping measured shape check", lastErr)
	}
	t.Error(lastErr)
}

// BenchmarkTransformFamily measures the extension transforms the library
// provides beyond the complex DFT: real-input DFT (half the work via
// packing), Walsh-Hadamard (no twiddles), DCT-II (one DFT plus rotation),
// and batched DFTs (rule-(9) parallelism across signals).
func BenchmarkTransformFamily(b *testing.B) {
	const n = 1024
	b.Run("complexDFT", func(b *testing.B) {
		p, _ := spiralfft.NewPlan(n, nil)
		defer p.Close()
		x := complexvec.Random(n, 1)
		y := make([]complex128, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Forward(y, x)
		}
	})
	b.Run("realDFT", func(b *testing.B) {
		p, _ := spiralfft.NewRealPlan(n, nil)
		defer p.Close()
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%7) - 3
		}
		y := make([]complex128, n/2+1)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Forward(y, x)
		}
	})
	b.Run("wht", func(b *testing.B) {
		p, _ := spiralfft.NewWHTPlan(n, nil)
		defer p.Close()
		x := complexvec.Random(n, 1)
		y := make([]complex128, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Transform(y, x)
		}
	})
	b.Run("dct2", func(b *testing.B) {
		p, _ := spiralfft.NewDCTPlan(n, nil)
		defer p.Close()
		x := make([]float64, n)
		for i := range x {
			x[i] = float64(i%5) - 2
		}
		y := make([]float64, n)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Forward(y, x)
		}
	})
	for _, workers := range []int{1, benchP} {
		workers := workers
		b.Run(fmt.Sprintf("batch16/p=%d", workers), func(b *testing.B) {
			p, err := spiralfft.NewBatchPlan(n, 16, &spiralfft.Options{Workers: workers})
			if err != nil {
				b.Fatal(err)
			}
			defer p.Close()
			x := complexvec.Random(n*16, 1)
			y := make([]complex128, n*16)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.Forward(y, x)
			}
		})
	}
}

// hostParallelism measures how much faster two goroutines complete a fixed
// spin workload than one goroutine doing both halves — ≈2 on an idle
// multicore, ≈1 when the CPUs are oversubscribed.
func hostParallelism() float64 {
	work := func(out *float64) {
		s := 1.0
		for i := 0; i < 5_000_000; i++ {
			s = s*1.0000001 + 1e-9
		}
		*out = s
	}
	var r0, r1 float64
	start := time.Now()
	work(&r0)
	work(&r1)
	seq := time.Since(start)
	start = time.Now()
	done := make(chan struct{})
	go func() { work(&r0); close(done) }()
	work(&r1)
	<-done
	par := time.Since(start)
	sink = r0 + r1
	if par <= 0 {
		return 1
	}
	return float64(seq) / float64(par)
}

// sink defeats dead-code elimination in hostParallelism.
var sink float64

// BenchmarkBarrierStructure contrasts synchronization structures: the
// Stockham autosort FFT pays log2(n) barriers per transform while the
// multicore Cooley-Tukey FFT pays one. At small sizes the barrier count
// dominates — the same overhead economics that drive the paper's
// parallelization crossover.
func BenchmarkBarrierStructure(b *testing.B) {
	for _, logN := range []int{8, 10, 12} {
		n := 1 << uint(logN)
		x := complexvec.Random(n, 9)
		y := make([]complex128, n)
		b.Run(fmt.Sprintf("multicoreCT-1barrier/logN=%d", logN), func(b *testing.B) {
			m, ok := exec.SplitFor(n, benchP, 4)
			if !ok {
				b.Skip("no split")
			}
			pool := smp.NewPool(benchP)
			defer pool.Close()
			pl := multicoreCT(b, n, m, ir.ScheduleBlock, pool)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				pl.Transform(y, x)
			}
			reportPseudo(b, n)
		})
		b.Run(fmt.Sprintf("stockham-logNbarriers/logN=%d", logN), func(b *testing.B) {
			pool := smp.NewPool(benchP)
			defer pool.Close()
			s, err := baseline.NewStockham(n, benchP, pool)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				s.Transform(y, x)
			}
			reportPseudo(b, n)
		})
	}
}

// BenchmarkCachedPlanParallelGoroutines measures the payoff of the
// concurrency-safe plan + cache combination: g goroutines share ONE cached
// plan (the FFTW-wisdom usage pattern) and hammer it with independent
// transforms. Sequential plans should scale with g; parallel pooled plans
// serialize their region internally, bounding the loss to lock handoff.
func BenchmarkCachedPlanParallelGoroutines(b *testing.B) {
	for _, cfg := range []struct {
		name string
		opt  *spiralfft.Options
	}{
		{"seq", nil},
		{"pool", &spiralfft.Options{Workers: benchP}},
	} {
		for _, logN := range []int{8, 12} {
			n := 1 << logN
			for _, g := range []int{1, 2, 4, 8} {
				b.Run(fmt.Sprintf("%s/logN=%d/goroutines=%d", cfg.name, logN, g), func(b *testing.B) {
					var cache spiralfft.Cache
					defer cache.Close()
					p, err := cache.Plan(n, cfg.opt)
					if err != nil {
						b.Fatal(err)
					}
					defer p.Close()
					b.ResetTimer()
					var wg sync.WaitGroup
					var next atomic.Int64
					for w := 0; w < g; w++ {
						wg.Add(1)
						go func(w int) {
							defer wg.Done()
							src := make([]complex128, n)
							dst := make([]complex128, n)
							src[w%n] = 1
							for next.Add(1) <= int64(b.N) {
								if err := p.Forward(dst, src); err != nil {
									b.Error(err)
									return
								}
							}
						}(w)
					}
					wg.Wait()
					reportPseudo(b, n)
				})
			}
		}
	}
}
