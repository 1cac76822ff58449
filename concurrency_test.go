package spiralfft_test

import (
	"math/cmplx"
	"sync"
	"testing"

	fft "spiralfft"
	"spiralfft/internal/baseline"
)

// The tests in this file are the concurrency contract's teeth: one shared
// plan (or cache) hammered from many goroutines, with every result
// cross-checked against the naive-DFT oracle, run under -race in CI.

const stressGoroutines = 8

// stressComplexPlan runs iters Forward/Inverse calls per goroutine through
// one shared plan, each goroutine with its own distinct input, verifying
// every output against the naive DFT.
func stressComplexPlan(t *testing.T, p *fft.Plan, n, iters int) {
	t.Helper()
	naive := baseline.NewNaive(n)
	var wg sync.WaitGroup
	for g := 0; g < stressGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			src := make([]complex128, n)
			for i := range src {
				src[i] = complex(float64((i*7+g*13)%11)-5, float64((i*3+g)%9)-4)
			}
			want := make([]complex128, n)
			naive.Transform(want, src)
			dst := make([]complex128, n)
			back := make([]complex128, n)
			for it := 0; it < iters; it++ {
				if err := p.Forward(dst, src); err != nil {
					t.Error(err)
					return
				}
				for i := range dst {
					if cmplx.Abs(dst[i]-want[i]) > 1e-8*float64(n) {
						t.Errorf("goroutine %d iter %d: bin %d = %v, want %v — shared state corrupted",
							g, it, i, dst[i], want[i])
						return
					}
				}
				if err := p.Inverse(back, dst); err != nil {
					t.Error(err)
					return
				}
				for i := range back {
					if cmplx.Abs(back[i]-src[i]) > 1e-8*float64(n) {
						t.Errorf("goroutine %d iter %d: round-trip[%d] = %v, want %v",
							g, it, i, back[i], src[i])
						return
					}
				}
			}
		}(g)
	}
	wg.Wait()
}

// TestConcurrentSequentialPlan: one sequential plan shared by 8 goroutines.
func TestConcurrentSequentialPlan(t *testing.T) {
	p, err := fft.NewPlan(256, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	stressComplexPlan(t, p, 256, 40)
}

// TestConcurrentParallelPlanPool: one parallel plan on the persistent
// worker-pool backend. Regions must serialize internally — this is the
// case that corrupted the spin-barrier protocol before plans were
// concurrency-safe.
func TestConcurrentParallelPlanPool(t *testing.T) {
	p, err := fft.NewPlan(1024, &fft.Options{Workers: 2, Backend: fft.BackendPool})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.IsParallel() {
		t.Skip("size/worker combination did not parallelize")
	}
	stressComplexPlan(t, p, 1024, 20)
}

// TestConcurrentParallelPlanSpawn: the spawn backend runs overlapping
// regions truly concurrently; per-context barriers keep them independent.
func TestConcurrentParallelPlanSpawn(t *testing.T) {
	p, err := fft.NewPlan(1024, &fft.Options{Workers: 2, Backend: fft.BackendSpawn})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.IsParallel() {
		t.Skip("size/worker combination did not parallelize")
	}
	stressComplexPlan(t, p, 1024, 20)
}

// TestConcurrentFourStepPlan: the large-N tier's two-pass program shared by
// 8 goroutines on the pool backend, forced on at n=1024.
func TestConcurrentFourStepPlan(t *testing.T) {
	p, err := fft.NewPlan(1024, &fft.Options{Workers: 2, Backend: fft.BackendPool, LargeNThreshold: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.IsFourStep() || !p.IsParallel() {
		t.Fatalf("plan is not a parallel four-step plan: %s", p.Tree())
	}
	stressComplexPlan(t, p, 1024, 20)
}

// TestConcurrentSharedCache: goroutines concurrently resolve a mix of
// sizes through one cache while using the returned (shared) plans.
func TestConcurrentSharedCache(t *testing.T) {
	var c fft.Cache
	defer c.Close()
	sizes := []int{16, 64, 256, 512}
	oracles := make(map[int]*baseline.Naive, len(sizes))
	for _, n := range sizes {
		oracles[n] = baseline.NewNaive(n)
	}
	var wg sync.WaitGroup
	for g := 0; g < stressGoroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < 20; it++ {
				n := sizes[(g+it)%len(sizes)]
				p, err := c.Plan(n, nil)
				if err != nil {
					t.Error(err)
					return
				}
				src := make([]complex128, n)
				for i := range src {
					src[i] = complex(float64((i+g)%5), float64((i*g+it)%7))
				}
				dst := make([]complex128, n)
				want := make([]complex128, n)
				if err := p.Forward(dst, src); err != nil {
					t.Error(err)
					return
				}
				oracles[n].Transform(want, src)
				for i := range dst {
					if cmplx.Abs(dst[i]-want[i]) > 1e-8*float64(n) {
						t.Errorf("goroutine %d: n=%d bin %d wrong", g, n, i)
						return
					}
				}
				p.Close()
			}
		}(g)
	}
	wg.Wait()
	if st := c.Stats(); st.Misses != int64(len(sizes)) {
		t.Errorf("misses = %d, want %d (each size planned once)", st.Misses, len(sizes))
	}
}

// TestConcurrentOtherPlanTypes drives the remaining plan types — batch,
// real, 2D, DCT, STFT, WHT — through one shared instance each, all at
// once, under the race detector.
func TestConcurrentOtherPlanTypes(t *testing.T) {
	const n = 64
	bp, err := fft.NewBatchPlan(n, 4, &fft.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Close()
	rp, err := fft.NewRealPlan(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	p2, err := fft.NewPlan2D(8, 8, &fft.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	dp, err := fft.NewDCTPlan(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	sp, err := fft.NewSTFTPlan(n, n/2, fft.WindowHann, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	wp, err := fft.NewWHTPlan(n, &fft.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()

	var wg sync.WaitGroup
	run := func(f func(g, it int) error) {
		for g := 0; g < stressGoroutines; g++ {
			wg.Add(1)
			go func(g int) {
				defer wg.Done()
				for it := 0; it < 15; it++ {
					if err := f(g, it); err != nil {
						t.Error(err)
						return
					}
				}
			}(g)
		}
	}

	run(func(g, it int) error { // BatchPlan round-trip
		src := make([]complex128, n*4)
		for i := range src {
			src[i] = complex(float64((i+g)%9), float64(it%3))
		}
		dst := make([]complex128, n*4)
		if err := bp.Forward(dst, src); err != nil {
			return err
		}
		return bp.Inverse(dst, dst)
	})
	run(func(g, it int) error { // RealPlan round-trip
		src := make([]float64, n)
		for i := range src {
			src[i] = float64((i*g + it) % 13)
		}
		spec := make([]complex128, rp.SpectrumLen())
		out := make([]float64, n)
		if err := rp.Forward(spec, src); err != nil {
			return err
		}
		return rp.Inverse(out, spec)
	})
	run(func(g, it int) error { // Plan2D round-trip
		src := make([]complex128, p2.Len())
		for i := range src {
			src[i] = complex(float64((i+g)%5), float64(it%4))
		}
		dst := make([]complex128, p2.Len())
		if err := p2.Forward(dst, src); err != nil {
			return err
		}
		return p2.Inverse(dst, dst)
	})
	run(func(g, it int) error { // DCTPlan round-trip
		src := make([]float64, n)
		for i := range src {
			src[i] = float64((i + g*it) % 8)
		}
		coef := make([]float64, n)
		out := make([]float64, n)
		if err := dp.Forward(coef, src); err != nil {
			return err
		}
		return dp.Inverse(out, coef)
	})
	run(func(g, it int) error { // STFT per-frame Forward/Inverse
		frame := make([]float64, n)
		for i := range frame {
			frame[i] = float64((i * (g + 1)) % 6)
		}
		spec := make([]complex128, sp.Bins())
		out := make([]float64, n)
		if err := sp.Forward(spec, frame); err != nil {
			return err
		}
		return sp.Inverse(out, spec)
	})
	run(func(g, it int) error { // WHT self-inverse
		src := make([]complex128, n)
		for i := range src {
			src[i] = complex(float64((i^g)%7), 0)
		}
		dst := make([]complex128, n)
		if err := wp.Forward(dst, src); err != nil {
			return err
		}
		return wp.Inverse(dst, dst)
	})
	wg.Wait()
}
