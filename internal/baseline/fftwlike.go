package baseline

import (
	"fmt"
	"time"

	"spiralfft/internal/complexvec"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/smp"
)

// PlannerMode selects how the FFTW-like planner decides on threading.
type PlannerMode int

const (
	// ModeEstimate enables threads only above a fixed size threshold,
	// modeling FFTW's guidance that multithreading pays off "only for
	// problem sizes beyond several thousand data points".
	ModeEstimate PlannerMode = iota
	// ModeMeasure times the sequential plan against each candidate thread
	// count and keeps the fastest — the behaviour of FFTW's bench utility
	// with -opatient and a maximum thread count, as used in the paper.
	ModeMeasure
)

// DefaultParallelThreshold is the ModeEstimate size at which the planner
// starts using threads (several thousand points, per the FFTW guidance the
// paper cites).
const DefaultParallelThreshold = 8192

// FFTWLike is an adaptive DFT plan in the style of FFTW 3.1's threaded
// transforms as the paper characterizes them:
//
//   - the planner chooses a factorization by fixed heuristic (largest
//     available codelet radix first),
//   - parallelization distributes the loops of the top-level split
//     block-cyclically across threads, with no cache-line (µ) awareness,
//   - every transform spawns fresh threads (thread pooling in FFTW 3.1 was
//     experimental and off; the paper found it broken for 4 threads),
//   - threads are only used when the planner decides they help.
type FFTWLike struct {
	n        int
	seq      *exec.Seq
	par      *ir.Executor // nil when the planner chose 1 thread
	threads  int          // threads actually used (1 when par == nil)
	maxReq   int          // threads requested
	scratch  []complex128
	planTime time.Duration
}

// FFTWConfig configures NewFFTWLike.
type FFTWConfig struct {
	// MaxThreads is the maximum thread count the planner may use (≥ 1);
	// like FFTW's bench, the plan uses however many of them measure best.
	MaxThreads int
	// Mode selects threshold-based or measured planning (default estimate).
	Mode PlannerMode
	// Threshold overrides DefaultParallelThreshold for ModeEstimate.
	Threshold int
}

// NewFFTWLike plans a size-n transform.
func NewFFTWLike(n int, cfg FFTWConfig) (*FFTWLike, error) {
	if cfg.MaxThreads < 1 {
		return nil, fmt.Errorf("baseline: MaxThreads %d", cfg.MaxThreads)
	}
	if cfg.Threshold == 0 {
		cfg.Threshold = DefaultParallelThreshold
	}
	start := time.Now()
	seq, err := exec.NewSeq(exec.RadixTree(n))
	if err != nil {
		return nil, err
	}
	p := &FFTWLike{
		n:       n,
		seq:     seq,
		threads: 1,
		maxReq:  cfg.MaxThreads,
		scratch: seq.NewScratch(),
	}
	switch cfg.Mode {
	case ModeEstimate:
		if cfg.MaxThreads > 1 && n >= cfg.Threshold {
			if par, ok := p.buildParallel(n, cfg.MaxThreads); ok {
				p.par = par
				p.threads = cfg.MaxThreads
			}
		}
	case ModeMeasure:
		p.measurePlans(n, cfg.MaxThreads)
	}
	p.planTime = time.Since(start)
	return p, nil
}

// buildParallel constructs the cyclic spawn-backed parallel plan FFTW's
// strategy corresponds to: the formula (14) program lowered with µ = 1 and
// the cyclic schedule. ok is false when no top-level split admits t-way loop
// parallelism.
func (p *FFTWLike) buildParallel(n, t int) (*ir.Executor, bool) {
	m, ok := exec.SplitFor(n, t, 1) // µ-oblivious: only p | m, p | k
	if !ok {
		return nil, false
	}
	prog, err := ir.LowerCT(n, m, ir.CTConfig{P: t, Mu: 1, Schedule: ir.ScheduleCyclic})
	if err != nil {
		return nil, false
	}
	par, err := ir.NewExecutor(prog, smp.NewSpawn(t))
	if err != nil {
		return nil, false
	}
	return par, true
}

// measurePlans times 1..max threads and keeps the fastest configuration.
func (p *FFTWLike) measurePlans(n, max int) {
	x := complexvec.Random(n, 42)
	y := make([]complex128, n)
	best := timeIt(func() { p.seq.Transform(y, x, p.scratch) })
	for t := 2; t <= max; t *= 2 {
		par, ok := p.buildParallel(n, t)
		if !ok {
			continue
		}
		d := timeIt(func() { par.Transform(y, x) })
		if d < best {
			best = d
			p.par = par
			p.threads = t
		}
	}
}

// timeIt returns the best-of-3 runtime of fn.
func timeIt(fn func()) time.Duration {
	best := time.Duration(1<<62 - 1)
	for r := 0; r < 3; r++ {
		start := time.Now()
		fn()
		if d := time.Since(start); d < best {
			best = d
		}
	}
	return best
}

// N returns the transform size.
func (p *FFTWLike) N() int { return p.n }

// Threads returns the thread count the planner settled on.
func (p *FFTWLike) Threads() int { return p.threads }

// PlanTime returns how long planning took.
func (p *FFTWLike) PlanTime() time.Duration { return p.planTime }

// Transform computes dst = DFT_n(src). dst == src is allowed.
func (p *FFTWLike) Transform(dst, src []complex128) {
	if len(dst) != p.n || len(src) != p.n {
		panic("baseline: FFTWLike.Transform length mismatch")
	}
	if p.par != nil {
		p.par.Transform(dst, src)
		return
	}
	p.seq.Transform(dst, src, p.scratch)
}

// Close releases the plan's backend resources.
func (p *FFTWLike) Close() {
	if p.par != nil {
		p.par.Backend().Close()
	}
}
