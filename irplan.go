package spiralfft

import (
	"context"
	"fmt"
	"sync"
	"sync/atomic"
	"time"
	"unsafe"

	"spiralfft/internal/ir"
	"spiralfft/internal/metrics"
	"spiralfft/internal/smp"
)

// planCore is the shared execution core embedded by every root plan family.
// It owns the pieces the seven plan types used to copy independently: the
// transform recorder feeding Snapshot, the nominal flop count, the threading
// backend and the compiled IR executors bound to it, and the final
// statistics preserved across Close. Families that carry their own
// parallelism set exe (and backend when parallel) through compile, plus
// lowerInverse when they have an inverse program; wrapper families (DCTPlan,
// STFTPlan) set inner to the plan that does.
type planCore struct {
	kind  transformKind
	flops int64
	rec   metrics.TransformRecorder
	// exe is the plan's one forward program: bound to backend when the plan
	// is parallel, run inline when it is sequential. It stays set after
	// Close, so introspection reports what was built.
	exe *ir.Executor
	// backend is the owned threading substrate behind a parallel exe; nil
	// for sequential plans and after Close.
	backend smp.Backend
	// lowerInverse lowers the family's inverse program for the given worker
	// count: the forward program's stages with the inverse folded in. inv is
	// built from it, for exe's workers and backend, on the first inverse
	// transform, so forward-only plans build and hold nothing for the
	// inverse.
	lowerInverse func(workers int) (*ir.Program, error)
	inv          lazyExecutor
	// lowerAliased, when set, lowers the program a transform runs when its
	// dst overlaps src, for plans whose own programs need the two apart
	// (the four-step tier): the forward or the inverse one, for the given
	// worker count. A nil program means the direction's own program
	// already runs in place. aliased holds the two executors, each built
	// on its first aliased call, so callers that never alias build and
	// hold nothing for them.
	lowerAliased func(workers int, inverse bool) (*ir.Program, error)
	aliased      [2]lazyExecutor
	// closed is set by release; every transform then fails with ErrClosed.
	closed atomic.Bool
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

// open reports ErrClosed once the plan has been closed.
func (c *planCore) open() error {
	if c.closed.Load() {
		return fmt.Errorf("%w (%s)", ErrClosed, kindNames[c.kind])
	}
	return nil
}

// run executes the plan's forward program on dst/src. A nil ctx runs the
// transform without cancellation checks.
func (c *planCore) run(ctx context.Context, dst, src []complex128) error {
	e, err := c.forAlias(c.exe, false, dst, src)
	if err != nil {
		return err
	}
	return e.TransformCtx(ctx, dst, src)
}

// runInverse executes the plan's inverse program, with the forward
// program's workers and backend.
func (c *planCore) runInverse(ctx context.Context, dst, src []complex128) error {
	e, err := c.inv.get(func() (*ir.Executor, error) {
		prog, err := c.lowerInverse(c.exe.Workers())
		if err != nil {
			return nil, err
		}
		return ir.NewExecutor(prog, c.exe.Backend())
	})
	if err == nil {
		e, err = c.forAlias(e, true, dst, src)
	}
	if err != nil {
		return err
	}
	return e.TransformCtx(ctx, dst, src)
}

// forAlias returns the executor a transform in one direction runs: e, or
// when dst overlaps src and the plan has aliased programs, the direction's
// aliased executor, built on first use with e's workers and backend.
func (c *planCore) forAlias(e *ir.Executor, inverse bool, dst, src []complex128) (*ir.Executor, error) {
	if c.lowerAliased == nil || !overlaps(dst, src) {
		return e, nil
	}
	i := 0
	if inverse {
		i = 1
	}
	a, err := c.aliased[i].get(func() (*ir.Executor, error) {
		prog, err := c.lowerAliased(e.Workers(), inverse)
		if err != nil || prog == nil {
			return nil, err
		}
		return ir.NewExecutor(prog, e.Backend())
	})
	if a == nil {
		return e, err
	}
	return a, err
}

// overlaps reports whether two slices share any memory.
func overlaps(a, b []complex128) bool {
	if len(a) == 0 || len(b) == 0 {
		return false
	}
	const size = unsafe.Sizeof(complex128(0))
	a0, b0 := uintptr(unsafe.Pointer(&a[0])), uintptr(unsafe.Pointer(&b[0]))
	return a0 < b0+uintptr(len(b))*size && b0 < a0+uintptr(len(a))*size
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
	if err := c.open(); err != nil {
		return err
	}
	defer rethrowAsRegionPanic()
	start := metrics.Now()
	if err := run(ctx, dst, src); err != nil {
		return err
	}
	c.record(start)
	return nil
}

// program returns the lowered IR program the plan executes.
func (c *planCore) program() *ir.Program { return c.exe.Program() }

// parallel reports whether the plan's program runs on more than one worker.
func (c *planCore) parallel() bool { return c.exe.Workers() > 1 }

// record logs one completed transform of the plan's nominal flop count.
func (c *planCore) record(start time.Time) { recordTransform(&c.rec, c.kind, start, c.flops) }

// recordN logs one completed transform of an explicit flop count (entry
// points whose work scales with the call, e.g. STFT whole-signal passes).
func (c *planCore) recordN(start time.Time, flops int64) {
	recordTransform(&c.rec, c.kind, start, flops)
}

// release closes the plan: every later transform fails with ErrClosed. It
// shuts down the owned backend, preserving its final statistics for
// Snapshot, and keeps the executor for introspection. Idempotent.
func (c *planCore) release() {
	c.closed.Store(true)
	if c.backend != nil {
		c.finalPool = poolStatsOf(c.backend)
		c.finalBarrier = c.exe.BarrierWait()
		c.backend.Close()
		c.backend = nil
	}
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
		st.BarrierWait = c.exe.BarrierWait()
		st.Pool = poolStatsOf(c.backend)
	default:
		st.BarrierWait = c.finalBarrier
		st.Pool = c.finalPool
	}
	return st
}

// buildStep builds a plan's executor on the backend it is handed (nil for
// the single-worker program).
type buildStep func(smp.Backend) (*ir.Executor, error)

// compiled is the build step of a program lowered on demand. A lowering
// error passes through.
func compiled(lower func() (*ir.Program, error)) buildStep {
	return func(b smp.Backend) (*ir.Executor, error) {
		prog, err := lower()
		if err != nil {
			return nil, err
		}
		return ir.NewExecutor(prog, b)
	}
}

// compile installs a plan family's one forward executor; every constructor
// takes this path. For workers > 1 and a non-nil par it opens the backend
// the options select and builds par on it, which may return the executor a
// measuring planner timed there. par keeps the plan sequential by returning
// nil, or an executor without a backend (the sequential program a measuring
// planner timed and found faster); only in the nil case does seq build the
// single-worker program. The backend is closed whenever the core does not
// adopt it, and every failure fails the constructor.
func (c *planCore) compile(opt Options, workers int, par, seq buildStep) error {
	var exe *ir.Executor
	var err error
	if workers > 1 && par != nil {
		backend := newBackendFor(opt, workers)
		exe, err = par(backend)
		if err == nil && exe != nil && exe.Backend() == backend {
			c.exe, c.backend = exe, backend
			return nil
		}
		backend.Close()
	}
	if err == nil && exe == nil {
		exe, err = seq(nil)
	}
	if err != nil {
		return err
	}
	c.exe = exe
	return nil
}

// newBackendFor creates the threading substrate the options select.
func newBackendFor(opt Options, workers int) smp.Backend {
	if opt.Backend == BackendSpawn {
		return smp.NewSpawn(workers)
	}
	return smp.NewPool(workers)
}
