package spiralfft

import (
	"context"
	"fmt"

	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
)

// BatchPlan transforms many independent equal-length signals in one call.
// In SPL terms a batch is I_b ⊗ DFT_n, which rule (9) of the paper
// parallelizes directly: each processor executes a contiguous block of
// whole transforms — embarrassingly parallel, load balanced, and (for
// n a multiple of µ) free of false sharing without any further rewriting.
// The schedule is lowered to a one-region IR program and runs through the
// shared executor.
//
// Signals are stored back to back in one flat slice of length Count()·N().
//
// A BatchPlan is safe for concurrent use: per-call workspace is pooled, and
// parallel regions on the pooled backend serialize inside the executor.
type BatchPlan struct {
	n, count int
	workers  int
	planCore
	// tree is the per-signal factorization.
	tree *exec.Tree
}

// NewBatchPlan prepares a plan for count signals of length n each.
// Workers > count is reduced to count (no idle processors).
func NewBatchPlan(n, count int, o *Options) (*BatchPlan, error) {
	if n < 1 || count < 1 {
		return nil, fmt.Errorf("%w: batch %d×%d", ErrInvalidSize, count, n)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	opt := o.withDefaults()
	workers := opt.Workers
	if workers > count {
		workers = count
	}
	// The per-signal factorization comes from the same wisdom-then-planner
	// selection as a sequential 1D plan of size n.
	tree, cost := planTree(newTuner(opt), opt, n)
	if opt.Wisdom != nil {
		opt.Wisdom.record(tree, cost)
	}
	b := &BatchPlan{n: n, count: count, workers: workers, tree: tree}
	b.init(tkBatch, int64(float64(count)*exec.FlopCount(n)))
	b.initComplexLeases(n*count, n*count)
	b.lowerInverse = func(w int) (*ir.Program, error) { return ir.LowerBatchInverse(tree, count, w) }
	build := compiled(func() (*ir.Program, error) { return ir.LowerBatch(tree, count, workers) })
	if err := b.compile(opt, workers, build, build); err != nil {
		return nil, err
	}
	return b, nil
}

// N returns the per-signal transform size.
func (b *BatchPlan) N() int { return b.n }

// Len returns the required slice length for Forward/Inverse: n·count,
// the whole batch (see Sized for the generic contract).
func (b *BatchPlan) Len() int { return b.n * b.count }

// Count returns the number of signals per batch.
func (b *BatchPlan) Count() int { return b.count }

// Workers returns the number of workers the batch uses.
func (b *BatchPlan) Workers() int { return b.workers }

// Program returns the lowered IR program the plan executes. The program is
// shared — callers must not mutate it.
func (b *BatchPlan) Program() *ir.Program { return b.program() }

// Forward transforms all signals: for each s < Count(),
// dst[s·n : (s+1)·n] = DFT_n(src[s·n : (s+1)·n]). dst == src is allowed.
// Forward is safe for concurrent use.
func (b *BatchPlan) Forward(dst, src []complex128) error { return b.ForwardCtx(nil, dst, src) }

// ForwardCtx is Forward under a context: cancellation is observed before
// the batch starts and at region boundaries; on cancellation the error is
// ctx.Err() and dst is unspecified. A nil ctx behaves like Forward.
func (b *BatchPlan) ForwardCtx(ctx context.Context, dst, src []complex128) error {
	if err := b.check(dst, src); err != nil {
		return err
	}
	return b.forward(ctx, dst, src)
}

// Inverse applies the unitary inverse to all signals. dst == src is allowed.
// Inverse is safe for concurrent use.
func (b *BatchPlan) Inverse(dst, src []complex128) error { return b.InverseCtx(nil, dst, src) }

// InverseCtx is Inverse under a context, with the same cancellation
// contract as ForwardCtx.
func (b *BatchPlan) InverseCtx(ctx context.Context, dst, src []complex128) error {
	if err := b.check(dst, src); err != nil {
		return err
	}
	return b.inverse(ctx, dst, src)
}

func (b *BatchPlan) check(dst, src []complex128) error {
	want := b.n * b.count
	if len(dst) != want || len(src) != want {
		return fmt.Errorf("%w: batch wants %d (= %d signals × %d), dst %d, src %d",
			ErrLengthMismatch, want, b.count, b.n, len(dst), len(src))
	}
	return nil
}

// Close releases the worker pool (if any). Idempotent; later transforms
// fail with ErrClosed, while Workers, Program and Snapshot keep reporting
// the plan as built.
func (b *BatchPlan) Close() { b.release() }
