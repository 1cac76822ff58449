// Package smp is the shared-memory threading substrate: it stands in for the
// paper's pthreads and OpenMP backends.
//
// Two backends implement fork-join parallel regions over p workers:
//
//   - Pool keeps p persistent workers that busy-wait on an epoch counter and
//     synchronize through a sense-reversing spin barrier. This mirrors the
//     paper's pthreads backend with thread pooling and "low-latency minimal
//     overhead synchronization" — the property that lets Spiral-generated
//     code profit from parallelization for DFTs as small as 2^8.
//
//   - Spawn starts fresh goroutines for every parallel region and joins them
//     with a WaitGroup. This models the conventional non-pooled approach
//     (OpenMP runtimes without pooling, FFTW 3.1's default thread mode),
//     whose per-region overhead pushes the parallelization break-even to
//     much larger sizes.
//
// The scheduling helpers BlockRange and CyclicIndices implement the two
// iteration schedules the paper contrasts: contiguous per-processor blocks
// (what the rewriting system derives; cache-line safe) and block-cyclic
// distribution (what FFTW uses; prone to false sharing for small blocks).
package smp

import (
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"spiralfft/internal/metrics"
)

// Backend executes parallel regions across a fixed set of workers.
type Backend interface {
	// Workers returns the number of workers p.
	Workers() int
	// Run executes fn(0), ..., fn(p-1) concurrently and returns when all
	// calls have completed (an implicit join barrier). Run must not be
	// called from inside fn. It may be called concurrently with itself;
	// unless Concurrent reports true, such calls run one after another.
	//
	// A panic inside fn is contained: it is recovered on the worker that
	// raised it (the join barrier still completes, and pooled workers keep
	// running), and after the join Run re-panics one representative
	// *WorkerPanic on the caller's goroutine. The backend remains fully
	// usable afterwards.
	Run(fn func(worker int))
	// Concurrent reports whether independent Run calls may proceed
	// concurrently. Pooled backends dispatch through shared epoch state and
	// return false (their Run serializes regions); stateless backends
	// (Spawn, Sequential) return true.
	Concurrent() bool
	// Close releases backend resources. The backend must not be used after.
	Close()
}

// spinLimit bounds pure busy-waiting before yielding the OS thread.
const spinLimit = 1 << 14

// yieldLimit bounds the Gosched phase of an oversubscribed (noSpin) waiter
// before it parks: enough yields to catch a back-to-back dispatch, few
// enough that an idle oversubscribed pool stops burning scheduler passes
// almost immediately.
const yieldLimit = 128

// oversubscribed reports whether p waiters would exceed the schedulable
// processors: busy-waiting then only burns the CPU the productive worker
// needs, so waiters should yield/park immediately instead of spinning.
func oversubscribed(p int) bool { return p > runtime.GOMAXPROCS(0) }

// ---------------------------------------------------------------------------
// Saturation signal
//
// Admission controllers (the fftd transform server) need one cheap process-
// wide question answered: are the execution backends already using every
// schedulable processor? Each backend bumps activeWorkers by its worker
// count for the duration of a Run, so the instantaneous load is visible
// without touching any pool's internal state.

// activeWorkers counts workers currently inside parallel regions, summed
// over every backend (pool, spawn, sequential) in the process.
var activeWorkers atomic.Int64

// beginRegion/endRegion bracket one Run dispatch of p workers.
func beginRegion(p int) { activeWorkers.Add(int64(p)) }
func endRegion(p int)   { activeWorkers.Add(int64(-p)) }

// ActiveWorkers returns the number of workers currently executing region
// bodies across all backends in the process — the instantaneous demand the
// execution substrate is placing on the machine.
func ActiveWorkers() int64 { return activeWorkers.Load() }

// Load returns ActiveWorkers relative to GOMAXPROCS: 0 is idle, 1 means
// every schedulable processor is claimed by a region, and values above 1
// mean regions are already oversubscribing the machine.
func Load() float64 {
	return float64(activeWorkers.Load()) / float64(runtime.GOMAXPROCS(0))
}

// Saturated reports whether admitting work needing p more workers would
// push the substrate past the schedulable processors. This is the signal
// the transform server's admission controller sheds load on.
func Saturated(p int) bool {
	return activeWorkers.Load()+int64(p) > int64(runtime.GOMAXPROCS(0))
}

// ---------------------------------------------------------------------------
// Worker panic containment

// WorkerPanic is the value Run re-panics on the caller's goroutine when a
// region body panics inside a worker. The original panic value and the
// panicking worker's stack are preserved; when several workers panic in one
// region, the first one recovered is the representative (the others are
// counted but dropped).
type WorkerPanic struct {
	// Worker is the index of the worker whose region body panicked.
	Worker int
	// Value is the original panic value.
	Value any
	// Stack is the panicking worker's stack, captured at recovery.
	Stack []byte
}

// Error renders the panic for use as an error value; WorkerPanic satisfies
// the error interface so recovered values compose with errors.As.
func (w *WorkerPanic) Error() string {
	return fmt.Sprintf("smp: worker %d panicked: %v", w.Worker, w.Value)
}

// Unwrap exposes an underlying error panic value to errors.Is/As chains.
func (w *WorkerPanic) Unwrap() error {
	if err, ok := w.Value.(error); ok {
		return err
	}
	return nil
}

// capturePanic wraps a recovered panic value as a *WorkerPanic, preserving
// an existing wrapper (nested Run calls) and counting the recovery.
func capturePanic(worker int, r any) *WorkerPanic {
	metrics.RecoveredPanics.Inc()
	if wp, ok := r.(*WorkerPanic); ok {
		return wp
	}
	return &WorkerPanic{Worker: worker, Value: r, Stack: debug.Stack()}
}

// ---------------------------------------------------------------------------
// Pool backend

// Pool is the persistent-worker backend. Workers wait for dispatch in a
// spin loop keyed on an epoch counter; dispatch and join cost no goroutine
// creation and no kernel transition in the common case (back-to-back
// transforms). A worker that has spun for a long time without work parks on
// a condition variable so an idle pool burns no CPU — important when the
// machine is shared, and irrelevant to the latency of a busy pool.
//
// A pool constructed with more workers than schedulable processors
// (p > GOMAXPROCS) is oversubscribed: busy-waiting would only steal cycles
// from the workers that hold the processors, so its waiters skip the spin
// phases entirely — a brief runtime.Gosched() loop, then park. Stats
// reports which wakeup paths the workers actually took.
type Pool struct {
	workers int
	// runMu serializes Run: one region occupies every worker, so regions
	// dispatched concurrently (e.g. by the forward and inverse executors of
	// one plan, which share its pool) take turns.
	runMu  sync.Mutex
	noSpin atomic.Bool // oversubscription policy, re-evaluated at every Run
	fn     func(int)   // current region body; written before epoch bump
	epoch  atomic.Uint32
	done   atomic.Uint32
	stop   atomic.Bool
	closed sync.Once
	joined sync.WaitGroup
	mu     sync.Mutex
	cond   *sync.Cond
	parked int
	// panicked holds the representative *WorkerPanic of the current region
	// (first recovery wins); Run swaps it out and re-panics after the join.
	panicked atomic.Pointer[WorkerPanic]
	ctr      poolCounters
}

// poolCounters is the pool's dispatch statistics. Wakeup counters record
// one event per worker per region (not per spin iteration), so maintaining
// them costs one atomic add on a path that already includes a dispatch.
type poolCounters struct {
	regions      metrics.Counter
	spinWakeups  metrics.Counter
	yieldWakeups metrics.Counter
	parkWakeups  metrics.Counter
	joinYields   metrics.Counter
	joinWaitNs   metrics.Counter // recorded only while metrics are enabled
	recovered    metrics.Counter // region-body panics recovered in this pool
}

// NewPool starts a pool with p persistent workers (p ≥ 1). The calling
// goroutine acts as worker 0 during Run, so only p-1 goroutines are created.
func NewPool(p int) *Pool {
	if p < 1 {
		panic(fmt.Sprintf("smp: NewPool(%d)", p))
	}
	pool := &Pool{workers: p}
	pool.noSpin.Store(oversubscribed(p))
	pool.cond = sync.NewCond(&pool.mu)
	pool.joined.Add(p - 1)
	registerPool(pool)
	for i := 1; i < p; i++ {
		go pool.workerLoop(i)
	}
	return pool
}

// Workers returns p.
func (p *Pool) Workers() int { return p.workers }

// Concurrent returns false: dispatch goes through the pool's single epoch
// counter, so regions never overlap; Run serializes concurrent callers.
func (p *Pool) Concurrent() bool { return false }

func (p *Pool) workerLoop(id int) {
	defer p.joined.Done()
	last := uint32(0)
	for {
		e := p.awaitEpoch(last)
		last = e
		if p.stop.Load() {
			return
		}
		p.runBody(id)
	}
}

// runBody executes the current region body for one pooled worker with panic
// containment: a panic is recovered and recorded for Run to re-throw, and
// the join counter still advances — the barrier completes, the worker loop
// keeps running, and the pool stays usable.
func (p *Pool) runBody(id int) {
	defer p.done.Add(1) // deferred first, runs last: after any recovery
	defer p.recoverBody(id)
	p.fn(id)
}

// recoverBody recovers a region-body panic and records the first one as the
// region's representative.
func (p *Pool) recoverBody(id int) {
	if r := recover(); r != nil {
		p.ctr.recovered.Inc()
		p.panicked.CompareAndSwap(nil, capturePanic(id, r))
	}
}

// rethrow re-panics the region's representative panic, if any, on the
// caller's goroutine. Called by Run strictly after the join, so the pool's
// dispatch state is quiescent when the panic propagates.
func (p *Pool) rethrow() {
	if wp := p.panicked.Swap(nil); wp != nil {
		panic(wp)
	}
}

// awaitEpoch waits until the epoch differs from last: pure spin first (the
// low-latency fast path), yielding spins next, then parking on the condition
// variable until Run wakes the pool. Oversubscribed pools skip the pure-spin
// phase and shorten the yield phase: with fewer processors than waiters,
// spinning only delays the worker that owns the processor. The policy is
// read once per wait, so a GOMAXPROCS change (re-evaluated by Run) takes
// effect at the next region.
func (p *Pool) awaitEpoch(last uint32) uint32 {
	spins := 0
	spinBudget, yieldBudget := spinLimit, 4*spinLimit
	if p.noSpin.Load() {
		spinBudget, yieldBudget = 0, yieldLimit
	}
	for {
		if e := p.epoch.Load(); e != last {
			if spins <= spinBudget {
				p.ctr.spinWakeups.Inc()
			} else {
				p.ctr.yieldWakeups.Inc()
			}
			return e
		}
		spins++
		if spins <= spinBudget {
			continue
		}
		if spins <= yieldBudget {
			runtime.Gosched()
			continue
		}
		// Park. The epoch re-check under the lock pairs with Run's
		// lock-protected Broadcast: either we see the new epoch here, or we
		// are registered as parked before Run broadcasts.
		p.mu.Lock()
		p.parked++
		for p.epoch.Load() == last {
			p.cond.Wait()
		}
		p.parked--
		p.mu.Unlock()
		p.ctr.parkWakeups.Inc()
		return p.epoch.Load()
	}
}

// Run dispatches fn to all workers and joins. The caller executes worker 0
// itself, so a 1-worker pool runs fn inline with zero overhead. A panic in
// any worker's fn is recovered (the join still completes) and re-panicked
// here as a *WorkerPanic; the pool remains usable afterwards. Concurrent
// calls run one after another.
func (p *Pool) Run(fn func(worker int)) {
	p.runMu.Lock()
	defer p.runMu.Unlock()
	p.ctr.regions.Inc()
	beginRegion(p.workers)
	defer endRegion(p.workers)
	// Re-evaluate the oversubscription policy against the live GOMAXPROCS:
	// a pool constructed before runtime.GOMAXPROCS changed must not keep
	// spinning when it should yield (or vice versa).
	noSpin := oversubscribed(p.workers)
	p.noSpin.Store(noSpin)
	if p.workers == 1 {
		p.runLocal(fn)
		p.rethrow()
		return
	}
	p.fn = fn
	p.done.Store(0)
	p.epoch.Add(1) // release: publishes p.fn to the spinning workers
	p.wakeParked()
	p.runLocal(fn)
	joinStart := metrics.Now()
	spins := 0
	for p.done.Load() != uint32(p.workers-1) {
		if noSpin {
			// Oversubscribed: the missing workers need this processor to
			// finish, so hand it over instead of spinning.
			runtime.Gosched()
			p.ctr.joinYields.Inc()
			continue
		}
		spins++
		if spins > spinLimit {
			runtime.Gosched()
			p.ctr.joinYields.Inc()
			spins = 0
		}
	}
	if !joinStart.IsZero() {
		p.ctr.joinWaitNs.Add(int64(time.Since(joinStart)))
	}
	p.rethrow()
}

// runLocal runs worker 0's share on the calling goroutine with the same
// panic containment as the pooled workers (no done bump: the join counts
// only workers 1..p-1).
func (p *Pool) runLocal(fn func(worker int)) {
	defer p.recoverBody(0)
	fn(0)
}

// wakeParked broadcasts to any workers that gave up spinning.
func (p *Pool) wakeParked() {
	p.mu.Lock()
	if p.parked > 0 {
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

// Close terminates the worker goroutines and waits for them to exit.
// Close is idempotent. The pool's counters remain readable through Stats
// after Close, and its totals stay in the package-wide aggregate.
func (p *Pool) Close() {
	p.closed.Do(func() {
		p.stop.Store(true)
		p.epoch.Add(1)
		p.wakeParked()
		p.joined.Wait()
		unregisterPool(p)
	})
}

// PoolStats is a snapshot of one pool's dispatch statistics.
type PoolStats struct {
	// Workers is the pool size p.
	Workers int
	// Oversubscribed reports p > GOMAXPROCS against the live processor
	// count (re-evaluated at every Run, not frozen at construction): the
	// pool's waiters skip busy-spinning and go straight to yield/park.
	Oversubscribed bool
	// Regions counts Run calls dispatched.
	Regions int64
	// SpinWakeups, YieldWakeups and ParkWakeups classify how workers
	// received dispatches: within the pure-spin budget, during the
	// yielded-spin phase, or by being woken from the parked state.
	SpinWakeups, YieldWakeups, ParkWakeups int64
	// JoinYields counts runtime.Gosched calls in Run's join loop.
	JoinYields int64
	// JoinWait is the total time Run spent waiting for workers after
	// finishing its own share. Accumulated only while metrics are enabled.
	JoinWait time.Duration
	// RecoveredPanics counts region-body panics recovered in this pool's
	// workers (each re-thrown to the Run caller as a *WorkerPanic).
	RecoveredPanics int64
}

// Add accumulates other into s (Workers is kept; Oversubscribed ORs).
func (s *PoolStats) Add(other PoolStats) {
	s.Oversubscribed = s.Oversubscribed || other.Oversubscribed
	s.Regions += other.Regions
	s.SpinWakeups += other.SpinWakeups
	s.YieldWakeups += other.YieldWakeups
	s.ParkWakeups += other.ParkWakeups
	s.JoinYields += other.JoinYields
	s.JoinWait += other.JoinWait
	s.RecoveredPanics += other.RecoveredPanics
}

// Stats returns a snapshot of the pool's dispatch counters. It is safe to
// call concurrently with Run and after Close. Oversubscribed reflects the
// live GOMAXPROCS value at the time of the call.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Workers:         p.workers,
		Oversubscribed:  oversubscribed(p.workers),
		Regions:         p.ctr.regions.Load(),
		SpinWakeups:     p.ctr.spinWakeups.Load(),
		YieldWakeups:    p.ctr.yieldWakeups.Load(),
		ParkWakeups:     p.ctr.parkWakeups.Load(),
		JoinYields:      p.ctr.joinYields.Load(),
		JoinWait:        time.Duration(p.ctr.joinWaitNs.Load()),
		RecoveredPanics: p.ctr.recovered.Load(),
	}
}

// ---------------------------------------------------------------------------
// Pool registry (process-wide aggregate for expvar-style export)

var poolReg struct {
	mu      sync.Mutex
	live    map[*Pool]struct{}
	retired PoolStats // summed stats of closed pools
	created int64
}

func registerPool(p *Pool) {
	poolReg.mu.Lock()
	if poolReg.live == nil {
		poolReg.live = make(map[*Pool]struct{})
	}
	poolReg.live[p] = struct{}{}
	poolReg.created++
	poolReg.mu.Unlock()
}

func unregisterPool(p *Pool) {
	poolReg.mu.Lock()
	delete(poolReg.live, p)
	poolReg.retired.Add(p.Stats())
	poolReg.mu.Unlock()
}

// AggregatePoolStats sums dispatch statistics over every pool the process
// has created (live and closed).
type AggregatePoolStats struct {
	// Pools counts pools ever created; Live counts pools not yet closed.
	Pools, Live int64
	PoolStats
}

// AggregateStats returns the process-wide pool statistics.
func AggregateStats() AggregatePoolStats {
	poolReg.mu.Lock()
	defer poolReg.mu.Unlock()
	agg := AggregatePoolStats{Pools: poolReg.created, Live: int64(len(poolReg.live))}
	agg.PoolStats = poolReg.retired
	for p := range poolReg.live {
		agg.PoolStats.Add(p.Stats())
	}
	return agg
}

// ---------------------------------------------------------------------------
// Spawn backend

// Spawn is the non-pooled backend: every Run starts fresh goroutines.
type Spawn struct{ workers int }

// NewSpawn returns a spawn backend with p workers.
func NewSpawn(p int) Spawn {
	if p < 1 {
		panic(fmt.Sprintf("smp: NewSpawn(%d)", p))
	}
	return Spawn{p}
}

// Workers returns p.
func (s Spawn) Workers() int { return s.workers }

// Concurrent returns true: every Run builds its own WaitGroup and
// goroutines, so independent regions do not interfere.
func (s Spawn) Concurrent() bool { return true }

// Run starts p-1 goroutines, runs worker 0 inline, and joins. A panic in
// any worker's fn is recovered (the join still completes) and re-panicked
// here as a *WorkerPanic.
func (s Spawn) Run(fn func(worker int)) {
	beginRegion(s.workers)
	defer endRegion(s.workers)
	var panicked atomic.Pointer[WorkerPanic]
	body := func(id int) {
		defer func() {
			if r := recover(); r != nil {
				panicked.CompareAndSwap(nil, capturePanic(id, r))
			}
		}()
		fn(id)
	}
	if s.workers > 1 {
		var wg sync.WaitGroup
		wg.Add(s.workers - 1)
		for i := 1; i < s.workers; i++ {
			go func(id int) {
				defer wg.Done()
				body(id)
			}(i)
		}
		body(0)
		wg.Wait()
	} else {
		body(0)
	}
	if wp := panicked.Load(); wp != nil {
		panic(wp)
	}
}

// Close is a no-op: spawn backends hold no resources.
func (s Spawn) Close() {}

// ---------------------------------------------------------------------------
// Sequential backend

// Sequential is the 1-worker backend; Run calls fn(0) inline.
type Sequential struct{}

// Workers returns 1.
func (Sequential) Workers() int { return 1 }

// Concurrent returns true: Run is a plain inline call with no shared state.
func (Sequential) Concurrent() bool { return true }

// Run calls fn(0). A panic in fn is re-panicked as a *WorkerPanic so the
// containment contract is uniform across backends.
func (Sequential) Run(fn func(worker int)) {
	beginRegion(1)
	defer endRegion(1)
	defer func() {
		if r := recover(); r != nil {
			panic(capturePanic(0, r))
		}
	}()
	fn(0)
}

// Close is a no-op.
func (Sequential) Close() {}

// ---------------------------------------------------------------------------
// Spin barrier

// SpinBarrier is a reusable sense-reversing barrier for n participants. It
// lets a single parallel region contain multiple synchronized stages, which
// is how the multicore Cooley-Tukey executor separates its compute stages
// without paying a fork-join per stage.
type SpinBarrier struct {
	n      int32
	count  atomic.Int32
	sense  atomic.Uint32
	waitNs metrics.Counter
}

// NewSpinBarrier returns a barrier for n participants (n ≥ 1). A barrier
// with more participants than schedulable processors yields on every wait
// iteration instead of busy-spinning (the processors are needed by the
// participants that have not arrived yet); the check is against the live
// GOMAXPROCS, re-evaluated at every Wait.
func NewSpinBarrier(n int) *SpinBarrier {
	if n < 1 {
		panic(fmt.Sprintf("smp: NewSpinBarrier(%d)", n))
	}
	return &SpinBarrier{n: int32(n)}
}

// Wait blocks until all n participants have called Wait for the current
// phase. The barrier is immediately reusable for the next phase.
func (b *SpinBarrier) Wait() {
	if b.n == 1 {
		return
	}
	s := b.sense.Load()
	if b.count.Add(1) == b.n {
		b.count.Store(0)
		b.sense.Add(1) // release the other participants
		return
	}
	noSpin := oversubscribed(int(b.n))
	start := metrics.Now()
	spins := 0
	for b.sense.Load() == s {
		if noSpin {
			runtime.Gosched()
			continue
		}
		spins++
		if spins > spinLimit {
			runtime.Gosched()
			spins = 0
		}
	}
	if !start.IsZero() {
		b.waitNs.Add(int64(time.Since(start)))
	}
}

// WaitTime returns the total time participants spent blocked in Wait.
// Accumulated only while metrics are enabled.
func (b *SpinBarrier) WaitTime() time.Duration {
	return time.Duration(b.waitNs.Load())
}

// ---------------------------------------------------------------------------
// Iteration scheduling

// BlockRange returns the contiguous iteration block [lo, hi) that worker w
// of p executes out of total iterations. This is the schedule the rewriting
// system derives: as many consecutive iterations as possible per processor.
// When p does not divide total, the first total%p workers get one extra
// iteration.
func BlockRange(total, p, w int) (lo, hi int) {
	if p < 1 || w < 0 || w >= p {
		panic(fmt.Sprintf("smp: BlockRange(%d, %d, %d)", total, p, w))
	}
	base := total / p
	rem := total % p
	lo = w*base + min(w, rem)
	hi = lo + base
	if w < rem {
		hi++
	}
	return lo, hi
}

// CyclicIndices returns the iterations worker w executes under a block-cyclic
// schedule with the given block size: blocks are dealt to workers round-robin.
// This is the schedule the paper attributes to FFTW's parallel loops; with
// small blocks it interleaves processors' working sets within cache lines.
func CyclicIndices(total, p, w, block int) []int {
	if p < 1 || w < 0 || w >= p || block < 1 {
		panic(fmt.Sprintf("smp: CyclicIndices(%d, %d, %d, %d)", total, p, w, block))
	}
	var out []int
	for start := w * block; start < total; start += p * block {
		for i := start; i < start+block && i < total; i++ {
			out = append(out, i)
		}
	}
	return out
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
