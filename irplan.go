package spiralfft

import (
	"context"
	"sync"
	"time"

	"spiralfft/internal/ir"
	"spiralfft/internal/metrics"
	"spiralfft/internal/smp"
)

// planCore is the shared execution core embedded by every root plan family.
// It owns the pieces the seven plan types used to copy independently: the
// transform recorder feeding Snapshot, the nominal flop count, the threading
// backend and the compiled IR executors bound to it, and the final
// statistics preserved across Close. Families that carry their own
// parallelism set seqExe and, when parallel, exe/backend, plus
// lowerInverse when they have an inverse program; wrapper families (DCTPlan,
// STFTPlan) set inner to the plan that does.
type planCore struct {
	kind  transformKind
	flops int64
	rec   metrics.TransformRecorder
	// exe is the family's backend-bound executor (the lowered parallel
	// program); nil for plans running their sequential fallback program.
	exe *ir.Executor
	// seqExe is the single-worker program: the execution path of sequential
	// plans and the post-Close fallback of parallel ones.
	seqExe *ir.Executor
	// backend is the owned threading substrate behind exe; nil for
	// sequential plans. Set and cleared together with exe.
	backend smp.Backend
	// lowerInverse lowers the family's inverse program for the given worker
	// count: the forward program's stages with the inverse folded in.
	// invExe and invSeqExe mirror exe and seqExe for it; each is built on
	// the first inverse transform that runs it, so forward-only plans build
	// and hold nothing for the inverse.
	lowerInverse      func(workers int) (*ir.Program, error)
	invExe, invSeqExe lazyExecutor
	// inner, when set, is the wrapped plan that carries the parallelism;
	// Snapshot delegates pool and barrier statistics to it.
	inner interface{ Snapshot() PlanStats }
	// leases is the plan's buffer-lease arena (see lease.go); each family's
	// constructor arms New with its own lease shape via initComplexLeases /
	// initRealLeases / initFloatLeases.
	leases sync.Pool
	// finalPool/finalBarrier preserve the parallel statistics across
	// release, so Snapshot stays consistent after Close.
	finalPool    *PoolStats
	finalBarrier time.Duration
}

// init sets the recorder identity.
func (c *planCore) init(kind transformKind, flops int64) {
	c.kind = kind
	c.flops = flops
}

// run executes the plan's forward program on dst/src: the backend-bound
// executor while one is live, the sequential program otherwise. A nil ctx
// runs the transform without cancellation checks.
func (c *planCore) run(ctx context.Context, dst, src []complex128) error {
	if e := c.exe; e != nil {
		return e.TransformCtx(ctx, dst, src)
	}
	return c.seqExe.TransformCtx(ctx, dst, src)
}

// runInverse executes the plan's inverse program: on the plan's backend
// while it holds one, the single-worker program otherwise.
func (c *planCore) runInverse(ctx context.Context, dst, src []complex128) error {
	var e *ir.Executor
	var err error
	if fwd := c.exe; fwd != nil {
		e, err = c.invExe.get(func() (*ir.Executor, error) { return c.buildInverse(fwd.Workers(), fwd.Backend()) })
	} else {
		e, err = c.invSeqExe.get(func() (*ir.Executor, error) { return c.buildInverse(1, nil) })
	}
	if err != nil {
		return err
	}
	return e.TransformCtx(ctx, dst, src)
}

func (c *planCore) buildInverse(workers int, b smp.Backend) (*ir.Executor, error) {
	prog, err := c.lowerInverse(workers)
	if err != nil {
		return nil, err
	}
	return ir.NewExecutor(prog, b)
}

// lazyExecutor is an executor built on first use; a build error is kept and
// returned by every later use.
type lazyExecutor struct {
	once sync.Once
	exe  *ir.Executor
	err  error
}

func (l *lazyExecutor) get(build func() (*ir.Executor, error)) (*ir.Executor, error) {
	l.once.Do(func() { l.exe, l.err = build() })
	return l.exe, l.err
}

// forward is the shared forward body: run the program, convert a contained
// region panic to *RegionPanicError, and record the transform unless it was
// cancelled.
func (c *planCore) forward(ctx context.Context, dst, src []complex128) error {
	return c.transform(ctx, c.run, dst, src)
}

// inverse is forward for the plan's inverse program.
func (c *planCore) inverse(ctx context.Context, dst, src []complex128) error {
	return c.transform(ctx, c.runInverse, dst, src)
}

func (c *planCore) transform(ctx context.Context, run func(context.Context, []complex128, []complex128) error, dst, src []complex128) error {
	defer rethrowAsRegionPanic()
	start := metrics.Now()
	if err := run(ctx, dst, src); err != nil {
		return err
	}
	c.record(start)
	return nil
}

// program returns the lowered IR program the plan executes.
func (c *planCore) program() *ir.Program {
	if e := c.exe; e != nil {
		return e.Program()
	}
	return c.seqExe.Program()
}

// record logs one completed transform of the plan's nominal flop count.
func (c *planCore) record(start time.Time) { recordTransform(&c.rec, c.kind, start, c.flops) }

// recordN logs one completed transform of an explicit flop count (entry
// points whose work scales with the call, e.g. STFT whole-signal passes).
func (c *planCore) recordN(start time.Time, flops int64) {
	recordTransform(&c.rec, c.kind, start, flops)
}

// release shuts down the owned backend, preserving its final statistics for
// Snapshot, and drops the backend-bound executor (families with a sequential
// fallback program keep serving transforms through it). Idempotent.
func (c *planCore) release() {
	if c.backend != nil {
		c.finalPool = poolStatsOf(c.backend)
		if c.exe != nil {
			c.finalBarrier = c.exe.BarrierWait()
		}
		c.backend.Close()
		c.backend = nil
	}
	c.exe = nil
}

// Snapshot returns the plan's observability record: transform counts and,
// with metrics enabled (EnableMetrics), latency and pseudo-Mflop/s in the
// paper's unit, plus pool dispatch and barrier statistics for parallel
// plans. Wrapper families (DCTPlan, STFTPlan) report their own transform
// counts with the pool and barrier statistics of the inner plan that
// carries the parallelism. Safe to call concurrently with transforms
// and after Close.
func (c *planCore) Snapshot() PlanStats {
	st := PlanStats{TransformStats: transformStatsOf(&c.rec)}
	switch {
	case c.inner != nil:
		in := c.inner.Snapshot()
		st.BarrierWait = in.BarrierWait
		st.Pool = in.Pool
	case c.backend != nil:
		if c.exe != nil {
			st.BarrierWait = c.exe.BarrierWait()
		}
		st.Pool = poolStatsOf(c.backend)
	default:
		st.BarrierWait = c.finalBarrier
		st.Pool = c.finalPool
	}
	return st
}

// buildStep builds one of a plan's executors on the backend it is handed
// (nil for the single-worker program). A parallel step may return a nil
// executor to keep the plan sequential.
type buildStep func(smp.Backend) (*ir.Executor, error)

// compiled is the build step of a program lowered up front. A lowering error
// passes through, so callers can write compiled(ir.LowerX(...)).
func compiled(prog *ir.Program, err error) buildStep {
	return func(b smp.Backend) (*ir.Executor, error) {
		if err != nil {
			return nil, err
		}
		return ir.NewExecutor(prog, b)
	}
}

// compile installs a plan family's executors; every constructor takes this
// one path. For workers > 1 and a non-nil par it opens the backend the
// options select and adopts the executor par builds on it, which may be the
// one a measuring planner timed there. seq then builds the single-worker
// executor: the sequential plan's path and a parallel plan's post-Close
// fallback. The backend is closed whenever the core does not adopt it, and
// every failure fails the constructor.
func (c *planCore) compile(opt Options, workers int, par, seq buildStep) error {
	if workers > 1 && par != nil {
		backend := newBackendFor(opt, workers)
		exe, err := par(backend)
		if err != nil || exe == nil {
			backend.Close()
			if err != nil {
				return err
			}
		} else {
			c.exe, c.backend = exe, backend
		}
	}
	exe, err := seq(nil)
	if err != nil {
		c.release()
		return err
	}
	c.seqExe = exe
	return nil
}

// newBackendFor creates the threading substrate the options select.
func newBackendFor(opt Options, workers int) smp.Backend {
	if opt.Backend == BackendSpawn {
		return smp.NewSpawn(workers)
	}
	return smp.NewPool(workers)
}
