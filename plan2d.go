package spiralfft

import (
	"context"
	"fmt"

	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/rewrite"
	"spiralfft/internal/spl"
)

// Plan2D computes two-dimensional DFTs of rows×cols arrays stored row-major
// in one flat slice. The transform is separable — DFT_{r×c} = DFT_r ⊗ DFT_c
// — and parallelizes by the same Table-1 rules as the 1D case (Derive2D in
// the rewriting system): the row stage distributes contiguous row blocks
// (rule (9)), the column stage distributes contiguous, cache-line-aligned
// column blocks (rule (7)), with one barrier between the stages. The whole
// schedule is one lowered IR program, so a parallel transform costs a
// single region dispatch with an in-region spin barrier at the stage join.
//
// A Plan2D is safe for concurrent use: per-call workspace is pooled and
// parallel regions on the pooled backend serialize inside the executor.
type Plan2D struct {
	rows, cols int
	opt        Options
	planCore
}

// NewPlan2D prepares a rows×cols 2D DFT. For Workers > 1 the plan
// parallelizes when the stage preconditions hold (p | rows and pµ | cols);
// otherwise it runs sequentially.
func NewPlan2D(rows, cols int, o *Options) (*Plan2D, error) {
	if rows < 1 || cols < 1 {
		return nil, fmt.Errorf("%w: 2D size %d×%d", ErrInvalidSize, rows, cols)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	opt := o.withDefaults()
	// The row and column transforms are plain 1D DFTs, so their
	// factorizations route through the same wisdom-then-planner selection as
	// 1D plans (analytic ranking plus top-k measurement under PlannerMeasure)
	// instead of a fixed radix split, and their picks are shared with 1D
	// wisdom entries for the same sizes.
	tuner := newTuner(opt)
	rowTree, rowCost := planTree(tuner, opt, cols)
	colTree, colCost := planTree(tuner, opt, rows)
	if opt.Wisdom != nil {
		opt.Wisdom.record(rowTree, rowCost)
		opt.Wisdom.record(colTree, colCost)
	}
	p := &Plan2D{rows: rows, cols: cols, opt: opt}
	p.init(tk2D, int64(float64(rows)*exec.FlopCount(cols)+float64(cols)*exec.FlopCount(rows)))
	p.initComplexLeases(rows*cols, rows*cols)
	p.lowerInverse = func(w int) (*ir.Program, error) { return ir.Lower2DInverse(rows, cols, w, rowTree, colTree) }
	workers := 1
	if opt.Workers > 1 && rewrite.Parallel2DOK(rows, cols, opt.Workers, opt.CacheLineComplex) {
		workers = opt.Workers
	}
	build := compiled(func() (*ir.Program, error) { return ir.Lower2D(rows, cols, workers, rowTree, colTree) })
	if err := p.compile(opt, workers, build, build); err != nil {
		return nil, err
	}
	return p, nil
}

// Size returns (rows, cols).
func (p *Plan2D) Size() (rows, cols int) { return p.rows, p.cols }

// Len returns rows·cols, the required slice length.
func (p *Plan2D) Len() int { return p.rows * p.cols }

// N returns the total transform size rows·cols (the required slice length),
// satisfying the Transformer interface.
func (p *Plan2D) N() int { return p.Len() }

// IsParallel reports whether the plan distributes stages over workers.
func (p *Plan2D) IsParallel() bool { return p.parallel() }

// Program returns the lowered IR program the plan executes. The program is
// shared — callers must not mutate it.
func (p *Plan2D) Program() *ir.Program { return p.program() }

// Formula returns the SPL formula of the parallel schedule (Derive2D's
// output) or the plain tensor formula for sequential plans.
func (p *Plan2D) Formula() string {
	if f, _, ok := p.derive(); ok {
		return f.String()
	}
	return fmt.Sprintf("(DFT_%d ⊗ DFT_%d)", p.rows, p.cols)
}

// Derivation returns the rewriting derivation of the parallel schedule's
// formula (sequential plans return the empty string).
func (p *Plan2D) Derivation() string {
	if _, trace, ok := p.derive(); ok {
		return trace.String()
	}
	return ""
}

// derive runs Derive2D for a parallel plan's workers; ok is false for a
// sequential plan.
func (p *Plan2D) derive() (spl.Formula, rewrite.Trace, bool) {
	if !p.parallel() {
		return nil, rewrite.Trace{}, false
	}
	f, trace, err := rewrite.Derive2D(p.rows, p.cols, p.exe.Workers(), p.opt.CacheLineComplex)
	return f, trace, err == nil
}

// Forward computes the 2D DFT of src into dst (both length rows·cols,
// row-major). dst == src is allowed. Forward is safe for concurrent use.
func (p *Plan2D) Forward(dst, src []complex128) error { return p.ForwardCtx(nil, dst, src) }

// ForwardCtx is Forward under a context: cancellation is observed before
// the transform starts and at the row/column stage boundary (and any other
// region boundary); on cancellation the error is ctx.Err() and dst is
// unspecified. A nil ctx behaves like Forward.
func (p *Plan2D) ForwardCtx(ctx context.Context, dst, src []complex128) error {
	if len(dst) != p.Len() || len(src) != p.Len() {
		return lengthError("Plan2D.Forward", p.Len(), len(dst), len(src))
	}
	return p.forward(ctx, dst, src)
}

// Inverse computes the unitary 2D inverse: Inverse(Forward(x)) == x.
// Inverse is safe for concurrent use.
func (p *Plan2D) Inverse(dst, src []complex128) error { return p.InverseCtx(nil, dst, src) }

// InverseCtx is Inverse under a context, with the same cancellation
// contract as ForwardCtx.
func (p *Plan2D) InverseCtx(ctx context.Context, dst, src []complex128) error {
	if len(dst) != p.Len() || len(src) != p.Len() {
		return lengthError("Plan2D.Inverse", p.Len(), len(dst), len(src))
	}
	return p.inverse(ctx, dst, src)
}

// Close releases the worker pool (if any). Idempotent; later transforms
// fail with ErrClosed, while IsParallel, Formula, Program and Snapshot keep
// reporting the plan as built.
func (p *Plan2D) Close() { p.release() }
