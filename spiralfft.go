// Package spiralfft is a program-generation-based FFT library for shared
// memory multiprocessors and multicores, reproducing the system described in
//
//	F. Franchetti, Y. Voronenko, M. Püschel:
//	"FFT Program Generation for Shared Memory: SMP and Multicore",
//	Proc. Supercomputing (SC), 2006.
//
// Like Spiral, the library represents FFT algorithms as SPL formulas,
// rewrites them with the paper's shared-memory rules into the multicore
// Cooley-Tukey FFT (formula (14) — load balanced and free of false sharing
// by construction), autotunes over the factorization space with runtime
// feedback, and executes the result either sequentially or on a pool of
// persistent workers synchronized by spin barriers.
//
// Every plan family lowers its schedule into the shared stage-plan IR
// (internal/ir) — typed regions of codelet calls, twiddle scales and
// permutations separated by barriers — and executes the lowered program
// through one common executor. The same programs drive the code generator
// (internal/codegen) and the cache-line simulator (internal/cachesim), so
// what is audited and what is emitted is exactly what runs.
//
// # Quick start
//
//	plan, err := spiralfft.NewPlan(1024, &spiralfft.Options{Workers: 2})
//	if err != nil { ... }
//	defer plan.Close()
//	freq := make([]complex128, 1024)
//	plan.Forward(freq, signal)   // freq = DFT(signal)
//	plan.Inverse(signal, freq)   // signal restored
//
// # Concurrency
//
// All plan types are safe for concurrent use: any number of goroutines may
// call Forward/Inverse on one shared plan. Per-call workspace comes from an
// internal pool, so sequential transforms from different goroutines run
// truly in parallel; transforms of a parallel plan (Workers > 1) already
// occupy all of the plan's workers, so concurrent calls on the pooled
// backend serialize internally (use BackendSpawn for overlapping parallel
// regions). Expensive planning is best amortized through the process-wide
// plan cache: Acquire[*Plan](n, opts) returns a shared, ref-counted plan
// and only plans each (size, options) fingerprint once.
//
// Constructors report failures as wrapped sentinel errors (ErrInvalidSize,
// ErrInvalidOptions); transform methods report slice-length problems as
// ErrLengthMismatch. Match them with errors.Is.
package spiralfft

import (
	"context"
	"errors"
	"fmt"
	"time"

	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/rewrite"
	"spiralfft/internal/search"
	"spiralfft/internal/smp"
	"spiralfft/internal/spl"
)

// Backend selects the threading substrate for parallel plans.
type Backend int

const (
	// BackendPool uses persistent workers with spin-barrier synchronization
	// (the paper's pthreads backend with thread pooling). Default.
	BackendPool Backend = iota
	// BackendSpawn starts fresh goroutines per transform (the paper's
	// OpenMP-style backend without pooling).
	BackendSpawn
)

// String names the backend.
func (b Backend) String() string {
	if b == BackendSpawn {
		return "spawn"
	}
	return "pool"
}

// Planner selects how a plan's schedule is chosen. One policy holds on every
// tier (sequential tree, parallel split, four-step) and in every family that
// plans: the model-only planners (PlannerFixed, PlannerEstimate) never run a
// transform while planning, and the measuring planners time candidates on
// the plan's own backend and ship the executor that won. On the tree tier a
// Wisdom store, when set, is consulted first under every planner.
type Planner int

const (
	// PlannerFixed plans deterministically and runs no transform. Default.
	// Trees are the greedy radix factorization (largest codelet first), a
	// parallel plan uses the balanced pµ-admissible split, and the four-step
	// tier takes the head of the cost model's ranking of splits n1 with
	// radix sub-trees.
	PlannerFixed Planner = iota
	// PlannerEstimate searches with the analytic cost model and runs no
	// transform. Trees are the model's cheapest, a parallel plan uses the
	// fixed planner's split with model-chosen sub-trees, and the four-step
	// tier takes the head of the model's ranking with model-chosen
	// sub-trees.
	PlannerEstimate
	// PlannerMeasure is Spiral's full autotuning loop. Trees come from
	// dynamic programming over measured subtree runtimes (model-shortlisted),
	// a parallel plan times formula (14) splits against the sequential plan
	// and drops to sequential when parallel loses, and the four-step tier
	// times the top search.FourStepTopK entries of the model's ranking.
	PlannerMeasure
	// PlannerExhaustive measures every factorization tree (small sizes
	// only). A parallel plan uses the fixed planner's split with
	// exhaustively measured sub-trees; the four-step tier is timed as under
	// PlannerMeasure.
	PlannerExhaustive
)

// String names the planner.
func (p Planner) String() string {
	switch p {
	case PlannerEstimate:
		return "estimate"
	case PlannerMeasure:
		return "measure"
	case PlannerExhaustive:
		return "exhaustive"
	default:
		return "fixed"
	}
}

// Options configures NewPlan. The zero value (or nil) plans a sequential
// transform with the default radix factorization.
type Options struct {
	// Workers is the number of processors p to use (default 1).
	Workers int
	// CacheLineComplex is µ, the cache-line length in complex128 elements
	// (default 4, i.e. 64-byte lines).
	CacheLineComplex int
	// Backend selects pooled or spawned threading (parallel plans only).
	Backend Backend
	// Planner selects the tuning strategy.
	Planner Planner
	// Wisdom, when set, is consulted for previously tuned factorization
	// trees (skipping re-tuning) and receives the trees this plan settles
	// on. Share one Wisdom across plans and persist it with Export/Import.
	Wisdom *Wisdom
	// PlanBudget, when positive, bounds the total time the measuring
	// planners (PlannerMeasure, PlannerExhaustive) may spend searching: on
	// expiry the best factorization found so far is used (at worst the
	// fixed radix tree), so planning completes in bounded time instead of
	// scaling with the size of the search space. Zero means unbounded.
	PlanBudget time.Duration
	// LargeNThreshold is the transform size at or beyond which NewPlan
	// lowers the DFT through the four-step large-N tier (explicit blocked
	// transposes around contiguous sub-FFTs, twiddles generated in O(n1)
	// chunks) instead of the recursive tree schedule. Zero selects
	// DefaultLargeNThreshold (2^22); a negative value disables the tier
	// entirely. Sizes the tier cannot decompose (primes) fall back to the
	// tree planner regardless.
	LargeNThreshold int
}

func (o *Options) withDefaults() Options {
	var opt Options
	if o != nil {
		opt = *o
	}
	if opt.Workers == 0 {
		opt.Workers = 1
	}
	if opt.CacheLineComplex == 0 {
		opt.CacheLineComplex = 4
	}
	if opt.LargeNThreshold == 0 {
		opt.LargeNThreshold = DefaultLargeNThreshold
	}
	return opt
}

// Plan is a prepared DFT of a fixed size. A Plan is reusable across many
// transforms and safe for concurrent use: per-call workspace is checked out
// of internal pools, never stored on the plan.
//
// The plan's schedule is a lowered IR program: sequential plans run the
// single-call program of their factorization tree, parallel plans the
// two-stage multicore Cooley-Tukey program (formula (14)), both through the
// shared internal/ir executor.
type Plan struct {
	n   int
	opt Options
	planCore
	// tree is the factorization of a sequential tree plan (nil when the plan
	// is parallel or four-step).
	tree *exec.Tree
	// m is the parallel top-level split factor (0 when sequential);
	// ltree/rtree are the tuned sub-plan factorizations.
	m            int
	ltree, rtree *exec.Tree
	// fourStep, when set, marks the plan as a large-N four-step plan: the
	// schedule is ir.LowerFourStep's, m is the split n1, ltree/rtree the
	// row/column sub-trees, and tree is nil (no full-size factorization tree
	// is ever built at these sizes).
	fourStep *fourStepInfo
	// real marks the engine of a RealPlan of size 2n: every program the plan
	// lowers is completed into the real-input program around the DFT_n
	// (ir.RealForward, ir.RealInverse).
	real bool
	// onClose, when set, redirects Close to the owning Cache's ref-count
	// release instead of destroying the plan.
	onClose func()
}

// NewPlan prepares a DFT plan of size n (n ≥ 1) with the given options.
//
// A parallel plan (Workers > 1) requires a top-level split m·k of n with
// p·µ dividing both factors — the applicability condition of the multicore
// Cooley-Tukey FFT. If no such split exists the plan silently runs
// sequentially (IsParallel reports which happened). With PlannerMeasure the
// plan is additionally dropped to sequential when measurement shows the
// parallel version is slower at this size.
func NewPlan(n int, o *Options) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: %d", ErrInvalidSize, n)
	}
	return newPlan(n, o, false)
}

// newPlan builds a DFT_n plan; with real set it is instead the engine of a
// real-input plan of size 2n (see Plan.real).
func newPlan(n int, o *Options, real bool) (*Plan, error) {
	if err := o.Validate(); err != nil {
		return nil, err
	}
	opt := o.withDefaults()
	p := &Plan{n: n, opt: opt, real: real}
	if real {
		p.init(tkReal, int64(exec.FlopCount(2*n)/2))
		p.initRealLeases(2*n, n+1)
	} else {
		p.init(tkDFT, int64(exec.FlopCount(n)))
		p.initComplexLeases(n, n)
	}
	p.lowerInverse = p.inverseProgram

	tuner := newTuner(opt)
	if opt.LargeNThreshold > 0 && n >= opt.LargeNThreshold {
		// The large-N tier serves the size without building the full-size
		// tree schedule (whose root twiddle diagonal alone is an O(N)
		// resident table). Sizes it cannot decompose fall through; any other
		// failure fails the plan.
		err := p.planFourStep(tuner)
		if err == nil {
			return p, nil
		}
		if !errors.Is(err, errNoFourStepSplit) {
			return nil, err
		}
	}
	var par buildStep
	if opt.Workers > 1 {
		par = p.parallelStep(tuner)
	}
	seq := compiled(func() (*ir.Program, error) {
		p.tree = p.sequentialTree(tuner)
		return p.finisher().Apply(ir.LowerTree(p.tree))
	})
	if err := p.compile(opt, opt.Workers, par, seq); err != nil {
		return nil, err
	}
	return p, nil
}

// finisher completes a lowered DFT_n program into the program the plan
// ships: nil (the program itself), or for a real-input engine the real
// forward around it.
func (p *Plan) finisher() search.Finish {
	if !p.real {
		return nil
	}
	return ir.RealForward
}

// inverseProgram lowers the plan's inverse for the given worker count: the
// forward schedule (the same tier, split and sub-trees) with the inverse
// folded into its stages, completed like the forward. A real plan's inverse
// runs its DFT in place on dst, so its four-step program is the InPlace one.
func (p *Plan) inverseProgram(workers int) (*ir.Program, error) {
	var prog *ir.Program
	var err error
	switch {
	case p.fourStep != nil:
		prog, err = p.fourStepProgram(workers, true, p.real)
	case workers > 1:
		prog, err = ir.LowerCT(p.n, p.m, ir.CTConfig{
			P: workers, Mu: p.opt.CacheLineComplex,
			LeftTree: p.ltree, RightTree: p.rtree, Inverse: true,
		})
	default:
		prog, err = ir.LowerTreeInverse(p.tree)
	}
	if err != nil || !p.real {
		return prog, err
	}
	return ir.RealInverse(prog)
}

// fourStepProgram lowers the plan's four-step schedule for the given worker
// count and direction, as the InPlace program (dst may overlap src) when
// inPlace is set.
func (p *Plan) fourStepProgram(workers int, inverse, inPlace bool) (*ir.Program, error) {
	return ir.LowerFourStep(p.n, p.fourStep.n1, ir.FourStepConfig{
		P: workers, Mu: p.opt.CacheLineComplex,
		ColTree: p.rtree, RowTree: p.ltree, Inverse: inverse, InPlace: inPlace,
	})
}

// aliasedProgram lowers the program a four-step plan runs when dst overlaps
// src: the InPlace form of its forward, completed like the forward, or of
// its complex inverse. A real plan's inverse program already runs in place,
// so it has no aliased twin (nil).
func (p *Plan) aliasedProgram(workers int, inverse bool) (*ir.Program, error) {
	if inverse {
		if p.real {
			return nil, nil
		}
		return p.fourStepProgram(workers, true, true)
	}
	return p.finisher().Apply(p.fourStepProgram(workers, false, true))
}

// newTuner returns the search a constructor plans with (a variable so tests
// can inspect what planning measured).
var newTuner = func(opt Options) *search.Tuner {
	t := search.NewTuner(strategyFor(opt.Planner))
	t.Budget = opt.PlanBudget
	return t
}

func strategyFor(pl Planner) search.Strategy {
	switch pl {
	case PlannerEstimate:
		return search.StrategyEstimate
	case PlannerMeasure:
		return search.StrategyDP
	case PlannerExhaustive:
		return search.StrategyExhaustive
	default:
		return search.StrategyEstimate
	}
}

func (p *Plan) sequentialTree(tuner *search.Tuner) *exec.Tree {
	t, cost := planTree(tuner, p.opt, p.n)
	if p.opt.Wisdom != nil {
		p.opt.Wisdom.record(t, cost)
	}
	return t
}

// planTree picks a sequential factorization for size n under the options:
// the wisdom store's sequential slot first, then the planner strategy. The
// returned cost is the tuner's measured per-transform time, or 0 when
// nothing was measured (wisdom hit, fixed planner, or the estimate planner's
// model units, which are not comparable to real times).
func planTree(tuner *search.Tuner, opt Options, n int) (*exec.Tree, time.Duration) {
	if opt.Wisdom != nil {
		if t, ok := opt.Wisdom.Lookup(n, 1); ok {
			return t, 0
		}
	}
	if opt.Planner == PlannerFixed {
		return exec.RadixTree(n), 0
	}
	r := tuner.BestTree(n)
	cost := r.Time
	if opt.Planner == PlannerEstimate {
		cost = 0
	}
	return r.Tree, cost
}

// parallelWisdomTree consults the wisdom slot keyed (n, p): it stores the
// whole composite tree of a previously tuned parallel plan (top split at the
// root, tuned subtrees below). Returns the split and subtrees when the entry
// exists and satisfies the pµ-divisibility condition.
func parallelWisdomTree(opt Options, n int) (m int, lt, rt *exec.Tree, ok bool) {
	if opt.Wisdom == nil {
		return 0, nil, nil, false
	}
	t, found := opt.Wisdom.Lookup(n, opt.Workers)
	if !found || t.Leaf {
		return 0, nil, nil, false
	}
	m = t.M()
	q := opt.Workers * opt.CacheLineComplex
	if m%q != 0 || (n/m)%q != 0 {
		return 0, nil, nil, false
	}
	return m, t.Left, t.Right, true
}

// parallelStep returns the build step of the tree tier's parallel program,
// formula (14) for the split the wisdom store, the measuring search or the
// planner picks, or nil when n has no admissible split for the plan's
// workers (the plan then stays sequential).
func (p *Plan) parallelStep(tuner *search.Tuner) buildStep {
	opt := p.opt
	m, ok := exec.SplitFor(p.n, opt.Workers, opt.CacheLineComplex)
	if !ok {
		return nil
	}
	// A prior tuning run may have stored the whole parallel factorization
	// under the (n, p) wisdom slot; adopting it skips the split search
	// entirely (the cold-start fast path).
	if wm, lt, rt, ok := parallelWisdomTree(opt, p.n); ok {
		return p.lowerCT(wm, lt, rt)
	}
	if opt.Planner == PlannerMeasure {
		return func(backend smp.Backend) (*ir.Executor, error) {
			choice, err := tuneParallel(tuner, p.n, opt.Workers, opt.CacheLineComplex, backend, p.finisher())
			if err != nil {
				return nil, err
			}
			if opt.Wisdom != nil {
				opt.Wisdom.record(choice.Tree, choice.SeqTime)
			}
			// The tuner timed the executor it returns (the winning split on
			// this backend, or the sequential program): adopt it.
			if !choice.UsedParallel() {
				p.tree = choice.Tree
				return choice.SeqExec, nil
			}
			if opt.Wisdom != nil {
				opt.Wisdom.Record(WisdomKey{N: p.n, P: opt.Workers},
					exec.SplitTree(choice.Left, choice.Right), choice.ParTime)
			}
			p.m, p.ltree, p.rtree = choice.Split, choice.Left, choice.Right
			return choice.Exec, nil
		}
	}
	lt, leftCost := planTree(tuner, opt, m)
	rt, rightCost := planTree(tuner, opt, p.n/m)
	if opt.Wisdom != nil {
		opt.Wisdom.record(lt, leftCost)
		opt.Wisdom.record(rt, rightCost)
		opt.Wisdom.Record(WisdomKey{N: p.n, P: opt.Workers}, exec.SplitTree(lt, rt), 0)
	}
	return p.lowerCT(m, lt, rt)
}

// tuneParallel is the measuring planner's split search (a variable so tests
// can observe the choice the plan adopts).
var tuneParallel = (*search.Tuner).TuneParallel

// lowerCT records the split and returns the build step of formula (14) for
// it.
func (p *Plan) lowerCT(m int, lt, rt *exec.Tree) buildStep {
	p.m, p.ltree, p.rtree = m, lt, rt
	return compiled(func() (*ir.Program, error) {
		return p.finisher().Apply(ir.LowerCT(p.n, m, ir.CTConfig{
			P:        p.opt.Workers,
			Mu:       p.opt.CacheLineComplex,
			LeftTree: lt, RightTree: rt,
		}))
	})
}

// N returns the transform size.
func (p *Plan) N() int { return p.n }

// Len returns the required slice length for Forward/Inverse (equal to N
// for a 1D plan; see Sized for the generic contract).
func (p *Plan) Len() int { return p.n }

// IsParallel reports whether the plan executes on multiple workers.
func (p *Plan) IsParallel() bool { return p.parallel() }

// IsFourStep reports whether the plan runs the large-N four-step schedule
// (see Options.LargeNThreshold).
func (p *Plan) IsFourStep() bool { return p.fourStep != nil }

// Workers returns the number of workers the plan actually uses.
func (p *Plan) Workers() int { return p.exe.Workers() }

// Split returns the top-level factorization n = m·k of a parallel plan, or
// of a four-step large-N plan (m = n1). (0, 0 for sequential tree plans.)
func (p *Plan) Split() (m, k int) {
	if !p.parallel() && p.fourStep == nil {
		return 0, 0
	}
	return p.m, p.n / p.m
}

// Tree describes the factorization tree(s) of the plan, e.g.
// "(16 x 16)" or "parallel p=2: left=(8 x 2), right=16".
func (p *Plan) Tree() string {
	if fs := p.fourStep; fs != nil {
		return fmt.Sprintf("four-step p=%d: %d·%d, row=%s, col=%s",
			p.Workers(), fs.n1, p.n/fs.n1, p.ltree.String(), p.rtree.String())
	}
	if !p.parallel() {
		return p.tree.String()
	}
	return fmt.Sprintf("parallel p=%d: left=%s, right=%s", p.exe.Workers(), p.ltree.String(), p.rtree.String())
}

// Program returns the lowered IR program the plan executes (the sequential
// single-call program, or the two-stage multicore Cooley-Tukey program for
// parallel plans). The program is shared — callers must not mutate it.
func (p *Plan) Program() *ir.Program { return p.program() }

// Formula returns the SPL formula the plan implements, in the paper's
// notation: the multicore Cooley-Tukey FFT (formula (14)) for parallel
// plans, the Cooley-Tukey formula of the tree's root split for sequential
// ones, and DFT_n for a plan that runs one codelet.
func (p *Plan) Formula() string {
	if fs := p.fourStep; fs != nil {
		// The four-step schedule in the paper's notation. The program runs
		// it as two panel passes: the column pass fuses L into its gathers,
		// the row pass generates the twiddle diagonal, never tabulated.
		n1 := fs.n1
		n2 := p.n / n1
		return fmt.Sprintf("(DFT_%d ⊗ I_%d) · T^%d_%d · (I_%d ⊗ DFT_%d) · L^%d_%d",
			n1, n2, p.n, n2, n1, n2, p.n, n1)
	}
	if p.parallel() {
		if f, _, err := rewrite.DeriveMulticoreCT(p.n, p.m, p.exe.Workers(), p.opt.CacheLineComplex); err == nil {
			return f.String()
		}
	} else if !p.tree.Leaf {
		if g, ok := rewrite.CooleyTukey(p.tree.M()).Apply(spl.NewDFT(p.n)); ok {
			return g.String()
		}
	}
	return fmt.Sprintf("DFT_%d", p.n)
}

// Derivation returns the full rewriting derivation of the plan's formula
// (parallel plans only; sequential plans return the empty string).
func (p *Plan) Derivation() string {
	if !p.parallel() || p.fourStep != nil {
		return ""
	}
	_, trace, err := rewrite.DeriveMulticoreCT(p.n, p.m, p.exe.Workers(), p.opt.CacheLineComplex)
	if err != nil {
		return ""
	}
	return trace.String()
}

// Forward computes dst = DFT_n(src): dst[k] = Σ_j exp(-2πi·kj/n)·src[j].
// dst == src is allowed. len(dst) and len(src) must equal N().
// Forward is safe for concurrent use.
//
// If a region body panics during the transform, the panic is contained by
// the execution substrate (the worker pool and the plan survive) and
// re-raised on the calling goroutine as a *RegionPanicError.
func (p *Plan) Forward(dst, src []complex128) error { return p.ForwardCtx(nil, dst, src) }

// ForwardCtx is Forward under a context: cancellation is observed before
// the transform starts and again at every region boundary (barrier), so the
// call returns within about one region's worth of work after ctx is
// cancelled. On cancellation the returned error is ctx.Err() and dst is
// unspecified (possibly partially written). A nil ctx behaves like Forward.
func (p *Plan) ForwardCtx(ctx context.Context, dst, src []complex128) error {
	if len(dst) != p.n || len(src) != p.n {
		return lengthError("Forward", p.n, len(dst), len(src))
	}
	return p.forward(ctx, dst, src)
}

// Inverse computes the unitary inverse: dst = DFT_n^{-1}(src), so that
// Inverse(Forward(x)) == x. dst == src is allowed.
// Inverse is safe for concurrent use.
func (p *Plan) Inverse(dst, src []complex128) error { return p.InverseCtx(nil, dst, src) }

// InverseCtx is Inverse under a context, with the same cancellation
// contract as ForwardCtx.
func (p *Plan) InverseCtx(ctx context.Context, dst, src []complex128) error {
	if len(dst) != p.n || len(src) != p.n {
		return lengthError("Inverse", p.n, len(dst), len(src))
	}
	return p.inverse(ctx, dst, src)
}

// Close releases the plan. For a plan the caller constructed with NewPlan
// it shuts down the worker pool (if any) and is idempotent; later
// transforms fail with ErrClosed, while introspection and Snapshot keep
// reporting the plan as built. For a plan obtained from a Cache it releases
// one reference — call Close exactly once per Acquire/Cache.Plan call.
func (p *Plan) Close() {
	if p.onClose != nil {
		p.onClose()
		return
	}
	p.destroy()
}

// destroy closes the plan unconditionally (bypassing any cache hook).
// Idempotent. The plan's statistics remain readable via Snapshot.
func (p *Plan) destroy() { p.release() }

// Forward is a convenience one-shot transform: it plans sequentially,
// transforms, and returns a fresh result vector.
func Forward(x []complex128) ([]complex128, error) {
	p, err := NewPlan(len(x), nil)
	if err != nil {
		return nil, err
	}
	y := make([]complex128, len(x))
	if err := p.Forward(y, x); err != nil {
		return nil, err
	}
	return y, nil
}

// Inverse is the one-shot unitary inverse transform.
func Inverse(x []complex128) ([]complex128, error) {
	p, err := NewPlan(len(x), nil)
	if err != nil {
		return nil, err
	}
	y := make([]complex128, len(x))
	if err := p.Inverse(y, x); err != nil {
		return nil, err
	}
	return y, nil
}
