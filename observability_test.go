package spiralfft

import (
	"encoding/json"
	"expvar"
	"strings"
	"sync"
	"testing"
	"time"

	"spiralfft/internal/complexvec"
)

// TestMetricsDisabledZeroAlloc pins the observability layer's core promise:
// with metrics disabled (the default), the instrumentation threaded through
// every plan's hot path adds zero allocations per transform.
func TestMetricsDisabledZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items at random; allocation counts are meaningless")
	}
	if MetricsEnabled() {
		t.Fatal("metrics must be disabled by default")
	}
	for _, c := range []struct {
		name string
		opts *Options
	}{
		{"sequential", nil},
		{"parallel-pool", &Options{Workers: 2}},
	} {
		p, err := NewPlan(512, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		x := complexvec.Random(512, 1)
		y := make([]complex128, 512)
		p.Forward(y, x) // warm up pooled contexts
		if got := testing.AllocsPerRun(100, func() { p.Forward(y, x) }); got > 0 {
			t.Errorf("%s: %.1f allocs/op with metrics disabled", c.name, got)
		}
		p.Close()
	}
}

// TestPlanSnapshotLifecycle walks one parallel plan through the full
// observability story: counts-only while disabled, timing once enabled, and
// a stable snapshot after Close.
func TestPlanSnapshotLifecycle(t *testing.T) {
	DisableMetrics()
	p, err := NewPlan(1024, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := complexvec.Random(1024, 2)
	y := make([]complex128, 1024)

	p.Forward(y, x)
	st := p.Snapshot()
	if st.Transforms != 1 {
		t.Errorf("Transforms = %d, want 1", st.Transforms)
	}
	if st.Timed != 0 || st.PseudoMflops != 0 {
		t.Errorf("disabled metrics leaked timing: %+v", st.TransformStats)
	}
	if p.IsParallel() && st.Pool == nil {
		t.Error("parallel pooled plan must report pool stats")
	}

	EnableMetrics()
	p.Forward(y, x)
	p.Inverse(y, x)
	DisableMetrics()
	st = p.Snapshot()
	if st.Transforms != 3 || st.Timed != 2 {
		t.Errorf("Transforms = %d, Timed = %d, want 3 and 2", st.Transforms, st.Timed)
	}
	if st.PseudoMflops <= 0 || st.AvgTime <= 0 || st.P99 <= 0 {
		t.Errorf("timed stats empty: %+v", st.TransformStats)
	}
	if st.Pool != nil && st.Pool.Regions == 0 {
		t.Error("pool saw no regions despite parallel transforms")
	}

	preClose := p.Snapshot()
	p.Close()
	post := p.Snapshot()
	if post.Transforms != preClose.Transforms {
		t.Errorf("Close changed transform count: %d → %d", preClose.Transforms, post.Transforms)
	}
	if preClose.Pool != nil {
		if post.Pool == nil {
			t.Fatal("pool stats lost on Close")
		}
		if post.Pool.Regions != preClose.Pool.Regions {
			t.Errorf("Close changed pool regions: %d → %d", preClose.Pool.Regions, post.Pool.Regions)
		}
	}
}

// TestAllPlanTypesRecordTransforms drives each of the seven plan types once
// with metrics enabled and checks its Snapshot recorded a timed transform
// with a positive pseudo-Mflop/s rate.
func TestAllPlanTypesRecordTransforms(t *testing.T) {
	EnableMetrics()
	defer DisableMetrics()

	snapshots := map[string]func() PlanStats{}

	p, err := NewPlan(256, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x := complexvec.Random(256, 1)
	y := make([]complex128, 256)
	p.Forward(y, x)
	snapshots["Plan"] = p.Snapshot

	rp, err := NewRealPlan(256, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	xr := randomReal(256, 1)
	spec := make([]complex128, 129)
	rp.Forward(spec, xr)
	snapshots["RealPlan"] = rp.Snapshot

	bp, err := NewBatchPlan(64, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Close()
	bx := complexvec.Random(64*4, 1)
	by := make([]complex128, 64*4)
	bp.Forward(by, bx)
	snapshots["BatchPlan"] = bp.Snapshot

	p2, err := NewPlan2D(16, 16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	x2 := complexvec.Random(256, 1)
	y2 := make([]complex128, 256)
	p2.Forward(y2, x2)
	snapshots["Plan2D"] = p2.Snapshot

	wp, err := NewWHTPlan(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()
	wx := complexvec.Random(64, 1)
	wy := make([]complex128, 64)
	wp.Transform(wy, wx)
	snapshots["WHTPlan"] = wp.Snapshot

	dp, err := NewDCTPlan(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	dx := randomReal(64, 1)
	dy := make([]float64, 64)
	dp.Forward(dy, dx)
	snapshots["DCTPlan"] = dp.Snapshot

	sp, err := NewSTFTPlan(64, 32, WindowHann, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	sig := randomReal(256, 1)
	sgram := sp.NewSpectrogram(256)
	sp.Analyze(sgram, sig)
	snapshots["STFTPlan"] = sp.Snapshot

	for name, snap := range snapshots {
		st := snap()
		if st.Transforms < 1 || st.Timed < 1 {
			t.Errorf("%s: Transforms = %d, Timed = %d", name, st.Transforms, st.Timed)
		}
		if st.PseudoMflops <= 0 {
			t.Errorf("%s: PseudoMflops = %v", name, st.PseudoMflops)
		}
	}

	totals := TransformTotals()
	for _, family := range []string{"dft", "real", "batch", "dft2d", "wht", "dct", "stft"} {
		if totals[family].Transforms < 1 {
			t.Errorf("TransformTotals missing family %q: %+v", family, totals)
		}
	}
}

// TestCacheCounters exercises the cache's observability: hit/miss
// bookkeeping, single-flight waits while a build is in flight, and eviction
// counts on Close.
func TestCacheCounters(t *testing.T) {
	var c Cache

	p1, err := c.Plan(128, nil)
	if err != nil {
		t.Fatal(err)
	}
	p2, err := c.Plan(128, nil)
	if err != nil {
		t.Fatal(err)
	}
	if p1 != p2 {
		t.Error("cache returned distinct plans for one key")
	}
	rp, err := c.RealPlan(128, nil)
	if err != nil {
		t.Fatal(err)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 2 || st.Live != 2 {
		t.Errorf("stats = %+v, want 1 hit / 2 misses / 2 live", st)
	}
	if got := st.HitRate(); got < 0.33 || got > 0.34 {
		t.Errorf("HitRate = %v, want ~1/3", got)
	}
	if c.Snapshot() != st {
		t.Error("Snapshot and Stats disagree")
	}

	c.Close()
	if got := c.Stats(); got.Evictions != 2 || got.Live != 0 {
		t.Errorf("after Close: %+v, want 2 evictions / 0 live", got)
	}
	p1.Close()
	p2.Close()
	rp.Close()

	if (CacheStats{}).HitRate() != 0 {
		t.Error("empty HitRate must be 0")
	}
}

// TestCacheSingleflightWaitCounter arranges requests that demonstrably land
// while the first build is in flight: the builder is slowed by measured
// planning, and the waiters launch as soon as the miss is recorded (which
// happens before planning starts).
func TestCacheSingleflightWaitCounter(t *testing.T) {
	if testing.Short() {
		t.Skip("uses measured planning to stretch the build window")
	}
	opts := &Options{Planner: PlannerMeasure}
	for attempt, n := range []int{1 << 10, 1 << 12, 1 << 14} {
		var c Cache
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			if p, err := c.Plan(n, opts); err == nil {
				p.Close()
			}
		}()
		for c.Stats().Misses == 0 { // miss is counted before the build starts
			time.Sleep(50 * time.Microsecond)
		}
		for i := 0; i < 4; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				if p, err := c.Plan(n, opts); err == nil {
					p.Close()
				}
			}()
		}
		wg.Wait()
		st := c.Stats()
		c.Close()
		if st.SingleflightWaits > 0 {
			if st.Hits < st.SingleflightWaits {
				t.Errorf("waits %d exceed hits %d", st.SingleflightWaits, st.Hits)
			}
			return // observed what we came for
		}
		t.Logf("attempt %d (n=%d): build finished before waiters arrived, escalating", attempt, n)
	}
	t.Error("no single-flight wait observed even with a 16k measured build")
}

// TestExposeExpvar checks the standard-library export: the three published
// vars render as JSON with the expected fields, and double publication does
// not panic.
func TestExposeExpvar(t *testing.T) {
	ExposeExpvar()
	ExposeExpvar() // idempotent

	// Put something in the default cache and run a transform so every
	// exported map has content.
	p, err := Acquire[*Plan](64, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer Release(p)
	x := complexvec.Random(64, 1)
	y := make([]complex128, 64)
	p.Forward(y, x)

	for name, wantField := range map[string]string{
		"spiralfft.cache":      "Misses",
		"spiralfft.pools":      "Regions",
		"spiralfft.transforms": "dft",
	} {
		v := expvar.Get(name)
		if v == nil {
			t.Fatalf("expvar %q not published", name)
		}
		js := v.String()
		if !json.Valid([]byte(js)) {
			t.Errorf("%s: invalid JSON: %s", name, js)
		}
		if !strings.Contains(js, wantField) {
			t.Errorf("%s: missing %q in %s", name, wantField, js)
		}
	}
}

// TestPoolTotalsGrowWithUse: creating and driving a pooled plan must be
// visible in the process-wide pool aggregate, including after Close.
func TestPoolTotalsGrowWithUse(t *testing.T) {
	before := PoolTotals()
	p, err := NewPlan(1024, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	x := complexvec.Random(1024, 4)
	y := make([]complex128, 1024)
	p.Forward(y, x)
	parallel := p.IsParallel()
	p.Close()
	after := PoolTotals()
	if after.Pools <= before.Pools {
		t.Errorf("pool count did not grow: %d → %d", before.Pools, after.Pools)
	}
	if parallel && after.Regions <= before.Regions {
		t.Errorf("aggregate regions did not grow: %d → %d", before.Regions, after.Regions)
	}
}
