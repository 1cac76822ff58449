package spiralfft_test

import (
	"errors"
	"sync"
	"testing"

	fft "spiralfft"
	"spiralfft/internal/baseline"
)

// TestCacheHitReturnsSamePlan is the core cache contract: a second request
// with an equivalent configuration must NOT re-plan — it returns the very
// same *Plan (pointer identity) and the miss counter stays at 1.
func TestCacheHitReturnsSamePlan(t *testing.T) {
	var c fft.Cache
	defer c.Close()

	p1, err := c.Plan(256, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Plan(256, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("cache returned a different plan for the same key: re-planned on a hit")
	}
	st := c.Stats()
	if st.Misses != 1 || st.Hits != 1 {
		t.Fatalf("stats = %+v, want 1 miss and 1 hit", st)
	}
	if st.Live != 1 {
		t.Fatalf("Live = %d, want 1", st.Live)
	}
	p1.Close()
	p2.Close()
}

// TestCacheCanonicalFingerprint checks that all spellings of the default
// configuration collapse to one cache key.
func TestCacheCanonicalFingerprint(t *testing.T) {
	var c fft.Cache
	defer c.Close()

	spellings := []*fft.Options{
		nil,
		{},
		{Workers: 1},
		{Workers: 1, CacheLineComplex: 4},
	}
	var first *fft.Plan
	for i, o := range spellings {
		p, err := c.Plan(128, o)
		if err != nil {
			t.Fatalf("spelling %d: %v", i, err)
		}
		if first == nil {
			first = p
		} else if p != first {
			t.Fatalf("spelling %d produced a distinct plan; fingerprint not canonical", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 across equivalent spellings", st.Misses)
	}

	// A genuinely different configuration must get its own plan.
	par, err := c.Plan(128, &fft.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	if par == first {
		t.Fatal("Workers=2 shared the Workers=1 plan")
	}
	if got, want := (&fft.Options{}).Fingerprint(), (&fft.Options{Workers: 1, CacheLineComplex: 4}).Fingerprint(); got != want {
		t.Fatalf("Fingerprint mismatch for equivalent options: %q vs %q", got, want)
	}
}

// TestCacheSizesAreDistinct: different sizes, different plans, all live.
func TestCacheSizesAreDistinct(t *testing.T) {
	var c fft.Cache
	defer c.Close()
	sizes := []int{8, 16, 32, 64, 128, 256, 512, 1024}
	for _, n := range sizes {
		p, err := c.Plan(n, nil)
		if err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		if p.N() != n {
			t.Fatalf("plan has N=%d, want %d", p.N(), n)
		}
	}
	if st := c.Stats(); st.Live != len(sizes) || st.Misses != int64(len(sizes)) {
		t.Fatalf("stats = %+v, want %d live plans and misses", st, len(sizes))
	}
}

// TestCacheRefCountClose: a plan checked out of the cache must survive
// Cache.Close until its last holder releases it, then be destroyed exactly
// once — without disturbing concurrent-use guarantees.
func TestCacheRefCountClose(t *testing.T) {
	var c fft.Cache
	p1, err := c.Plan(64, &fft.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Plan(64, &fft.Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Drop the cache's hold while two references are outstanding.
	c.Close()

	src := make([]complex128, 64)
	dst := make([]complex128, 64)
	src[1] = 1
	if err := p1.Forward(dst, src); err != nil {
		t.Fatalf("plan unusable after Cache.Close with outstanding refs: %v", err)
	}
	p1.Close()
	// One reference left: still usable.
	if err := p2.Forward(dst, src); err != nil {
		t.Fatalf("plan unusable after one of two holders closed: %v", err)
	}
	p2.Close() // last ref: destroys the worker pool; must not panic
}

// TestCacheSingleflight: many goroutines requesting the same cold key must
// trigger exactly one planning pass and all receive the identical plan.
func TestCacheSingleflight(t *testing.T) {
	var c fft.Cache
	defer c.Close()

	const g = 16
	plans := make([]*fft.Plan, g)
	var wg sync.WaitGroup
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			p, err := c.Plan(512, &fft.Options{Workers: 2})
			if err != nil {
				t.Error(err)
				return
			}
			plans[i] = p
		}(i)
	}
	wg.Wait()
	for i := 1; i < g; i++ {
		if plans[i] != plans[0] {
			t.Fatalf("goroutine %d got a distinct plan", i)
		}
	}
	if st := c.Stats(); st.Misses != 1 {
		t.Fatalf("misses = %d, want 1 (single-flight)", st.Misses)
	}
}

// TestCacheRealPlan covers the real-input side: identity on hit,
// independence from the complex plan of the same size, and correctness.
func TestCacheRealPlan(t *testing.T) {
	var c fft.Cache
	defer c.Close()

	rp1, err := c.RealPlan(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	rp2, err := c.RealPlan(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rp1 != rp2 {
		t.Fatal("real-plan cache re-planned on a hit")
	}
	if _, err := c.Plan(64, nil); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.Live != 2 {
		t.Fatalf("Live = %d, want 2 (real and complex plans are distinct keys)", st.Live)
	}

	// Round-trip through the shared plan.
	src := make([]float64, 64)
	for i := range src {
		src[i] = float64(i%7) - 3
	}
	spec := make([]complex128, rp1.SpectrumLen())
	got := make([]float64, 64)
	if err := rp1.Forward(spec, src); err != nil {
		t.Fatal(err)
	}
	if err := rp1.Inverse(got, spec); err != nil {
		t.Fatal(err)
	}
	for i := range src {
		if d := got[i] - src[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("round-trip[%d] = %g, want %g", i, got[i], src[i])
		}
	}
	rp1.Close()
	rp2.Close()
}

// TestCachedPlanHelpers exercises the package-level DefaultCache checkout
// (Acquire/Release) and checks the cached plan against the naive-DFT oracle.
func TestCachedPlanHelpers(t *testing.T) {
	p1, err := fft.Acquire[*fft.Plan](32, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fft.Release(p1)
	p2, err := fft.Acquire[*fft.Plan](32, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer fft.Release(p2)
	if p1 != p2 {
		t.Fatal("Acquire re-planned on a hit")
	}
	if fft.DefaultCache().Stats().Misses < 1 {
		t.Fatal("DefaultCache stats not wired")
	}

	naive := baseline.NewNaive(32)
	src := make([]complex128, 32)
	for i := range src {
		src[i] = complex(float64(i), float64(32-i))
	}
	got := make([]complex128, 32)
	want := make([]complex128, 32)
	if err := p1.Forward(got, src); err != nil {
		t.Fatal(err)
	}
	naive.Transform(want, src)
	for i := range got {
		if d := got[i] - want[i]; real(d)*real(d)+imag(d)*imag(d) > 1e-18*32*32 {
			t.Fatalf("bin %d: got %v, want %v", i, got[i], want[i])
		}
	}

	rp, err := fft.Acquire[*fft.RealPlan](32, nil)
	if err != nil {
		t.Fatal(err)
	}
	fft.Release(rp)
}

// TestCacheErrors: invalid requests surface the sentinel errors and do not
// poison the cache.
func TestCacheErrors(t *testing.T) {
	var c fft.Cache
	defer c.Close()
	if _, err := c.Plan(0, nil); !errors.Is(err, fft.ErrInvalidSize) {
		t.Fatalf("Plan(0) err = %v, want ErrInvalidSize", err)
	}
	if _, err := c.Plan(8, &fft.Options{Workers: -1}); !errors.Is(err, fft.ErrInvalidOptions) {
		t.Fatalf("Workers=-1 err = %v, want ErrInvalidOptions", err)
	}
	if _, err := c.RealPlan(7, nil); !errors.Is(err, fft.ErrInvalidSize) {
		t.Fatalf("RealPlan(7) err = %v, want ErrInvalidSize", err)
	}
	if st := c.Stats(); st.Live != 0 {
		t.Fatalf("failed requests left %d live entries", st.Live)
	}
	// The key still works after the failures above.
	p, err := c.Plan(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
}

// TestAcquireGenericSurface: fft.Acquire[T] must share plans with the legacy
// helpers (same cache, same fingerprints, pointer identity) and fft.Release
// must balance references.
func TestAcquireGenericSurface(t *testing.T) {
	var c fft.Cache
	defer c.Close()

	p1, err := fft.AcquireFrom[*fft.Plan](&c, 64, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Plan(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Fatal("fft.Acquire and fft.Cache.Plan returned different plans for one fingerprint")
	}
	fft.Release(p1)
	p2.Close()

	r1, err := fft.AcquireFrom[*fft.RealPlan](&c, 128, nil)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.RealPlan(128, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r1 != r2 {
		t.Fatal("fft.Acquire[*fft.RealPlan] and fft.Cache.RealPlan returned different plans")
	}
	fft.Release(r1)
	fft.Release(r2)

	st := c.Stats()
	if st.Misses != 2 || st.Hits != 2 {
		t.Errorf("cache stats hits=%d misses=%d, want 2/2", st.Hits, st.Misses)
	}

	// Errors surface through the generic path too.
	if _, err := fft.AcquireFrom[*fft.Plan](&c, -1, nil); !errors.Is(err, fft.ErrInvalidSize) {
		t.Errorf("fft.Acquire(-1) error = %v, want fft.ErrInvalidSize", err)
	}
	if _, err := fft.AcquireFrom[*fft.RealPlan](&c, 3, nil); !errors.Is(err, fft.ErrInvalidSize) {
		t.Errorf("fft.Acquire[*fft.RealPlan](3) error = %v, want fft.ErrInvalidSize", err)
	}

	// Releasing nil is a no-op.
	fft.Release[*fft.Plan](nil)
	fft.Release[*fft.RealPlan](nil)
}

// TestAcquireDefaultCache: the package-level fft.Acquire goes through
// DefaultCache.
func TestAcquireDefaultCache(t *testing.T) {
	p, err := fft.Acquire[*fft.Plan](32, nil)
	if err != nil {
		t.Fatal(err)
	}
	q, err := fft.DefaultCache().Plan(32, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p != q {
		t.Error("fft.Acquire and DefaultCache().Plan disagree")
	}
	fft.Release(p)
	q.Close()
}
