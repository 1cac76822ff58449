package benchfmt

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"runtime"
	"sync"
	"time"

	"spiralfft"
	"spiralfft/internal/bench"
	"spiralfft/internal/codelet"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/machine"
	"spiralfft/internal/metrics"
	"spiralfft/internal/server"
	"spiralfft/internal/smp"
	"spiralfft/internal/wire"
)

// RunConfig parameterizes one grid run. The zero value records the full
// grid with library defaults.
type RunConfig struct {
	// Quick selects the seconds-long CI grid (fewer sizes, shorter
	// trials). Quick and full grids share metric keys where sizes
	// overlap, so Diff works across them on the intersection.
	Quick bool
	// Trials is K in min-of-K-trials timing (default 5; quick 3).
	Trials int
	// MinTrialTime is the minimum duration of one timing trial;
	// repetitions are calibrated to reach it (default 2ms; quick 300µs).
	MinTrialTime time.Duration
	// Workers is the plan worker count p (default GOMAXPROCS).
	Workers int
	// ServerRequests is how many in-process fftd requests feed the
	// p50/p99 histogram (default 300; quick 120).
	ServerRequests int
	// CreatedAt and GitSHA stamp the snapshot's provenance fields.
	CreatedAt time.Time
	GitSHA    string
	// Verbose, when set, receives progress lines.
	Verbose func(format string, args ...any)
}

func (c RunConfig) withDefaults() RunConfig {
	if c.Trials == 0 {
		c.Trials = 5
		if c.Quick {
			c.Trials = 3
		}
	}
	if c.MinTrialTime == 0 {
		c.MinTrialTime = 2 * time.Millisecond
		if c.Quick {
			c.MinTrialTime = 300 * time.Microsecond
		}
	}
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.ServerRequests == 0 {
		c.ServerRequests = 300
		if c.Quick {
			c.ServerRequests = 120
		}
	}
	if c.Verbose == nil {
		c.Verbose = func(string, ...any) {}
	}
	return c
}

// measureMin is the snapshot timing discipline: warm up once, calibrate
// repetitions until one trial lasts at least minTrial, then run K trials
// and report the fastest round's per-call time. Min-of-trials is robust
// against scheduler preemption and noisy neighbours — noise only ever
// slows a round down, so the minimum is the cleanest observation.
func measureMin(fn func(), trials int, minTrial time.Duration) time.Duration {
	fn() // warm up: plan-internal pools, caches, page faults
	reps := 1
	start := time.Now()
	fn()
	if d := time.Since(start); d < minTrial {
		if d <= 0 {
			reps = 1 << 10
		} else if r := int(minTrial/d) + 1; r < 1<<16 {
			reps = r
		} else {
			reps = 1 << 16
		}
	}
	best := time.Duration(math.MaxInt64)
	for t := 0; t < trials; t++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		if per := time.Since(start) / time.Duration(reps); per < best {
			best = per
		}
	}
	return best
}

// probe is one family measurement: a closure running one forward
// transform, its nominal flop count (each family's own convention, the
// same one its metrics recorder uses), and a cleanup.
type probe struct {
	key   string
	flops float64
	run   func()
	close func()
}

// familyProbes builds one probe per (family, size) grid point. Every
// family uses its plan's leased buffers, so the measured loop matches the
// serving hot path (no per-call allocation).
func familyProbes(cfg RunConfig) ([]probe, error) {
	o := &spiralfft.Options{Workers: cfg.Workers}
	var probes []probe

	dftSizes := []int{8, 10, 12, 14}
	whtSizes := []int{8, 12}
	realSizes := []int{10, 14}
	dctSizes := []int{10}
	batchN, batchCount := 256, 16
	rows, cols := 64, 64
	frame, hop, signal := 256, 128, 8192
	if cfg.Quick {
		dftSizes = []int{8, 10, 12}
		whtSizes = []int{8}
		realSizes = []int{10}
		dctSizes = []int{8}
		batchN, batchCount = 64, 8
		rows, cols = 32, 32
		frame, hop, signal = 128, 64, 2048
	}

	for _, logN := range dftSizes {
		n := 1 << logN
		p, err := spiralfft.NewPlan(n, o)
		if err != nil {
			return nil, fmt.Errorf("benchfmt: dft n=%d: %w", n, err)
		}
		l := p.Buffers()
		l.In[1] = 1
		probes = append(probes, probe{
			key:   fmt.Sprintf("mflops/dft/n=%d", n),
			flops: exec.FlopCount(n),
			run:   func() { p.Forward(l.Out, l.In) },
			close: func() { l.Release(); p.Close() },
		})
	}
	{
		// Leaf-tier microbenchmark: one unrolled codelet on contiguous
		// arrays, no plan machinery. Tracks the generated-kernel tier in
		// isolation so a codegen regression is visible even when plan-level
		// numbers are dominated by the memory system.
		const leafN = 64
		k, ok := codelet.ForSize(leafN)
		if !ok {
			return nil, fmt.Errorf("benchfmt: no unrolled codelet for n=%d", leafN)
		}
		src := make([]complex128, leafN)
		dst := make([]complex128, leafN)
		src[1] = 1
		probes = append(probes, probe{
			key:   fmt.Sprintf("mflops/leaf/n=%d", leafN),
			flops: exec.FlopCount(leafN),
			run:   func() { k.Apply(dst, 0, 1, src, 0, 1, nil) },
			close: func() {},
		})
	}
	{
		p, err := spiralfft.NewBatchPlan(batchN, batchCount, o)
		if err != nil {
			return nil, fmt.Errorf("benchfmt: batch: %w", err)
		}
		l := p.Buffers()
		l.In[1] = 1
		probes = append(probes, probe{
			key:   fmt.Sprintf("mflops/batch/n=%d,count=%d", batchN, batchCount),
			flops: float64(batchCount) * exec.FlopCount(batchN),
			run:   func() { p.Forward(l.Out, l.In) },
			close: func() { l.Release(); p.Close() },
		})
	}
	{
		p, err := spiralfft.NewPlan2D(rows, cols, o)
		if err != nil {
			return nil, fmt.Errorf("benchfmt: dft2d: %w", err)
		}
		l := p.Buffers()
		l.In[1] = 1
		probes = append(probes, probe{
			key:   fmt.Sprintf("mflops/dft2d/rows=%d,cols=%d", rows, cols),
			flops: float64(rows)*exec.FlopCount(cols) + float64(cols)*exec.FlopCount(rows),
			run:   func() { p.Forward(l.Out, l.In) },
			close: func() { l.Release(); p.Close() },
		})
	}
	for _, logN := range whtSizes {
		n := 1 << logN
		p, err := spiralfft.NewWHTPlan(n, o)
		if err != nil {
			return nil, fmt.Errorf("benchfmt: wht n=%d: %w", n, err)
		}
		l := p.Buffers()
		l.In[1] = 1
		probes = append(probes, probe{
			key:   fmt.Sprintf("mflops/wht/n=%d", n),
			flops: float64(n) * float64(bits.TrailingZeros(uint(n))),
			run:   func() { p.Forward(l.Out, l.In) },
			close: func() { l.Release(); p.Close() },
		})
	}
	for _, logN := range realSizes {
		n := 1 << logN
		p, err := spiralfft.NewRealPlan(n, o)
		if err != nil {
			return nil, fmt.Errorf("benchfmt: real n=%d: %w", n, err)
		}
		l := p.Buffers()
		l.In[1] = 1
		probes = append(probes, probe{
			key:   fmt.Sprintf("mflops/real/n=%d", n),
			flops: exec.FlopCount(n) / 2,
			run:   func() { p.Forward(l.Out, l.In) },
			close: func() { l.Release(); p.Close() },
		})
	}
	for _, logN := range dctSizes {
		n := 1 << logN
		p, err := spiralfft.NewDCTPlan(n, o)
		if err != nil {
			return nil, fmt.Errorf("benchfmt: dct n=%d: %w", n, err)
		}
		l := p.Buffers()
		l.In[1] = 1
		probes = append(probes, probe{
			key:   fmt.Sprintf("mflops/dct/n=%d", n),
			flops: exec.FlopCount(n),
			run:   func() { p.Forward(l.Out, l.In) },
			close: func() { l.Release(); p.Close() },
		})
	}
	{
		p, err := spiralfft.NewSTFTPlan(frame, hop, spiralfft.WindowHann, o)
		if err != nil {
			return nil, fmt.Errorf("benchfmt: stft: %w", err)
		}
		sig := make([]float64, signal)
		sig[1] = 1
		spec := p.NewSpectrogram(signal)
		frames := p.NumFrames(signal)
		probes = append(probes, probe{
			key:   fmt.Sprintf("mflops/stft/frame=%d,hop=%d,signal=%d", frame, hop, signal),
			flops: float64(frames) * exec.FlopCount(frame) / 2,
			run:   func() { p.Analyze(spec, sig) },
			close: func() { p.Close() },
		})
	}
	return probes, nil
}

// cachedParallelThroughput hammers one cached plan from g goroutines (the
// FFTW-wisdom usage pattern the PR 1 cache exists for) and reports the best
// trial's aggregate transform rate.
func cachedParallelThroughput(cfg RunConfig, n, g, perG int) (float64, error) {
	var cache spiralfft.Cache
	defer cache.Close()
	p, err := cache.Plan(n, &spiralfft.Options{Workers: cfg.Workers})
	if err != nil {
		return 0, err
	}
	defer p.Close()
	trial := func() time.Duration {
		var wg sync.WaitGroup
		start := time.Now()
		for w := 0; w < g; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				l := p.Buffers()
				defer l.Release()
				l.In[w%n] = 1
				for i := 0; i < perG; i++ {
					p.Forward(l.Out, l.In)
				}
			}(w)
		}
		wg.Wait()
		return time.Since(start)
	}
	trial() // warm up
	best := 0.0
	for t := 0; t < cfg.Trials; t++ {
		if tps := float64(g*perG) / trial().Seconds(); tps > best {
			best = tps
		}
	}
	return best, nil
}

// serverQuantiles drives an in-process fftd server core with sequential
// dft requests and reads p50/p99 off its RequestSnapshot histogram — the
// same numbers /metrics exports, so the snapshot tracks the serving path,
// not a synthetic reimplementation of it.
func serverQuantiles(cfg RunConfig, n, requests int) (p50, p99 time.Duration, err error) {
	s := server.New(server.Config{Workers: cfg.Workers})
	defer s.Close()
	req := &server.Request{Family: server.FamilyDFT, N: n}
	in := make([]complex128, n)
	in[1] = 1
	var payload bytes.Buffer
	if err := wire.WriteComplexLE(&payload, in); err != nil {
		return 0, 0, err
	}
	raw := payload.Bytes()
	for i := 0; i < requests; i++ {
		if err := s.Transform(nil, req, bytes.NewReader(raw), io.Discard); err != nil {
			return 0, 0, fmt.Errorf("benchfmt: fftd request %d: %w", i, err)
		}
	}
	snap := s.Metrics()
	return snap.P50, snap.P99, nil
}

// Run executes the metric grid and assembles the snapshot.
func Run(cfg RunConfig) (*Snapshot, error) {
	cfg = cfg.withDefaults()
	grid := "full"
	if cfg.Quick {
		grid = "quick"
	}
	host := machine.Host()
	s := &Snapshot{
		Schema: SchemaVersion,
		GitSHA: cfg.GitSHA,
		Grid:   grid,
		Host: HostInfo{
			OS: host.OS, Arch: host.Arch, NumCPU: host.NumCPU,
			Fingerprint: host.Fingerprint(),
		},
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
	if !cfg.CreatedAt.IsZero() {
		s.CreatedAt = cfg.CreatedAt.UTC().Format(time.RFC3339)
	}

	// Per-size pseudo-Mflop/s for the seven plan families.
	probes, err := familyProbes(cfg)
	if err != nil {
		return nil, err
	}
	for _, p := range probes {
		d := measureMin(p.run, cfg.Trials, cfg.MinTrialTime)
		p.close()
		s.Metrics = append(s.Metrics, Metric{
			Key: p.key, Unit: "pseudo-Mflop/s",
			Value:  metrics.PseudoMflops(p.flops, d),
			Better: HigherIsBetter, Trials: cfg.Trials,
		})
		cfg.Verbose("%-40s %8.1f pseudo-Mflop/s (min of %d)", p.key, s.Metrics[len(s.Metrics)-1].Value, cfg.Trials)
	}

	// Enormous-FFT tier (full grid only — one transform at 2^22 costs on
	// the order of a second): the default plan, which takes the four-step
	// large-N path at this size, against the tree planner's recursive
	// schedule forced via LargeNThreshold=-1. The pair is the committed
	// evidence that the tier pays off; plans are built and torn down
	// sequentially so the two ~200 MiB working sets never coexist.
	if !cfg.Quick {
		const n = 1 << 22
		trials := 2
		measureLargeN := func(key string, threshold int) error {
			p, err := spiralfft.NewPlan(n, &spiralfft.Options{
				Workers: cfg.Workers, LargeNThreshold: threshold,
			})
			if err != nil {
				return fmt.Errorf("benchfmt: %s: %w", key, err)
			}
			defer p.Close()
			l := p.Buffers()
			defer l.Release()
			l.In[1] = 1
			d := measureMin(func() { p.Forward(l.Out, l.In) }, trials, cfg.MinTrialTime)
			s.Metrics = append(s.Metrics, Metric{
				Key: key, Unit: "pseudo-Mflop/s",
				Value:  metrics.PseudoMflops(exec.FlopCount(n), d),
				Better: HigherIsBetter, Trials: trials,
			})
			cfg.Verbose("%-40s %8.1f pseudo-Mflop/s (%s, min of %d)", key, s.Metrics[len(s.Metrics)-1].Value, p.Tree(), trials)
			return nil
		}
		if err := measureLargeN(fmt.Sprintf("mflops/dft/n=%d", n), 0); err != nil {
			return nil, err
		}
		if err := measureLargeN(fmt.Sprintf("mflops/dft-tree/n=%d", n), -1); err != nil {
			return nil, err
		}
	}

	// Blocked-transpose bandwidth (full grid only): one ir.Transpose op over
	// a 1024×1024 complex matrix (16 MiB per buffer, far beyond L2),
	// reported as the effective streamed bandwidth: the memory system's
	// redistribution reference.
	if !cfg.Quick {
		const rows, cols = 1024, 1024
		const tn = rows * cols
		prog := &ir.Program{
			Name: "transpose-bandwidth", N: tn, P: 1, Mu: 4,
			Nodes: []ir.Node{&ir.Region{Name: "t", Workers: [][]ir.Op{{
				ir.Transpose{Dst: ir.BufDst, Src: ir.BufSrc, Rows: rows, Cols: cols, Lo: 0, Hi: cols},
			}}}},
		}
		exe, err := ir.NewExecutor(prog, nil)
		if err != nil {
			return nil, fmt.Errorf("benchfmt: transpose bandwidth: %w", err)
		}
		src := make([]complex128, tn)
		dst := make([]complex128, tn)
		src[1] = 1
		d := measureMin(func() { exe.Transform(dst, src) }, cfg.Trials, cfg.MinTrialTime)
		// One read and one write of the whole matrix per transform.
		gbs := 2 * float64(tn) * 16 / d.Seconds() / 1e9
		s.Metrics = append(s.Metrics, Metric{
			Key:  fmt.Sprintf("bandwidth/transpose/rows=%d,cols=%d", rows, cols),
			Unit: "GB/s", Value: gbs, Better: HigherIsBetter, Trials: cfg.Trials,
		})
		cfg.Verbose("%-40s %8.2f GB/s (min of %d)", "bandwidth/transpose", gbs, cfg.Trials)
	}

	// Cached-plan parallel throughput: g = 2×workers goroutines sharing
	// one cached plan.
	{
		n, g, perG := 1024, 2*cfg.Workers, 200
		if cfg.Quick {
			perG = 50
		}
		tps, err := cachedParallelThroughput(cfg, n, g, perG)
		if err != nil {
			return nil, err
		}
		s.Metrics = append(s.Metrics, Metric{
			Key:  fmt.Sprintf("throughput/cached-parallel/n=%d", n),
			Unit: "transforms/s", Value: tps,
			Better: HigherIsBetter, Trials: cfg.Trials,
		})
		cfg.Verbose("%-40s %8.0f transforms/s (g=%d)", "throughput/cached-parallel", tps, g)
	}

	// smp dispatch cost: no-op region through pool vs spawn, min-of-trials
	// per region (the hermetic A1 measurement).
	{
		regions := 200
		if cfg.Quick {
			regions = 100
		}
		pool := smp.NewPool(cfg.Workers)
		spawn := smp.NewSpawn(cfg.Workers)
		poolNs := float64(bench.DispatchCost(pool, regions, cfg.Trials).Nanoseconds())
		spawnNs := float64(bench.DispatchCost(spawn, regions, cfg.Trials).Nanoseconds())
		pool.Close()
		spawn.Close()
		s.Metrics = append(s.Metrics,
			Metric{Key: "dispatch/pool", Unit: "ns/region", Value: poolNs, Better: LowerIsBetter, Trials: cfg.Trials},
			Metric{Key: "dispatch/spawn", Unit: "ns/region", Value: spawnNs, Better: LowerIsBetter, Trials: cfg.Trials},
		)
		cfg.Verbose("%-40s pool %.0fns spawn %.0fns per region", "dispatch", poolNs, spawnNs)
	}

	// Cold planning latency: a fresh measured-planner plan with no wisdom.
	// The model-guided shortlist keeps this inside the plan budget — the
	// metric catches regressions where planning falls back to exhaustive
	// measurement.
	{
		n, budget := 4096, 5*time.Second
		start := time.Now()
		p, err := spiralfft.NewPlan(n, &spiralfft.Options{
			Workers: cfg.Workers, Planner: spiralfft.PlannerMeasure, PlanBudget: budget,
		})
		if err != nil {
			return nil, err
		}
		planTime := time.Since(start)
		p.Close()
		s.Metrics = append(s.Metrics, Metric{
			Key: fmt.Sprintf("plantime/dft/n=%d", n), Unit: "ns",
			Value: float64(planTime.Nanoseconds()), Better: LowerIsBetter,
		})
		cfg.Verbose("%-40s %v (budget %v)", "plantime/dft", planTime, budget)
	}

	// fftd serving latency: p50/p99 from the server core's request
	// histogram.
	{
		n := fftdSize(cfg.Quick)
		p50, p99, err := serverQuantiles(cfg, n, cfg.ServerRequests)
		if err != nil {
			return nil, err
		}
		k50, k99 := fftdKeys(n)
		s.Metrics = append(s.Metrics,
			Metric{Key: k50, Unit: "ns", Value: float64(p50.Nanoseconds()), Better: LowerIsBetter},
			Metric{Key: k99, Unit: "ns", Value: float64(p99.Nanoseconds()), Better: LowerIsBetter},
		)
		cfg.Verbose("%-40s p50 %v p99 %v (%d requests)", "fftd", p50, p99, cfg.ServerRequests)
	}
	return s, nil
}

// fftdSize is the dft request size of the fftd latency probe.
func fftdSize(quick bool) int {
	if quick {
		return 256
	}
	return 1024
}

// fftdKeys names the fftd latency quantiles of n-point requests. Like every
// grid key they carry the size, so the quick and full grids never share a
// key for different shapes.
func fftdKeys(n int) (p50, p99 string) {
	return fmt.Sprintf("fftd/p50/n=%d", n), fmt.Sprintf("fftd/p99/n=%d", n)
}
