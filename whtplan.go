package spiralfft

import (
	"context"
	"fmt"

	"spiralfft/internal/ir"
	"spiralfft/internal/rewrite"
	"spiralfft/internal/smp"
	"spiralfft/internal/spl"
)

// WHTPlan computes the Walsh-Hadamard transform of size n = 2^k. The WHT
// shares the FFT's tensor structure — Spiral treats it as just another
// transform in the same framework — and parallelizes by the same rewriting
// rules; having no twiddle factors, it isolates the pure shared-memory
// scheduling machinery. A parallel plan splits n = p·(n/p) (ir.WHTSplit):
// each worker runs one contiguous WHT_{n/p}, then one butterfly pass over
// its column range of the p rows, in two regions with one barrier and no
// temp, through the shared executor.
//
// A WHTPlan is safe for concurrent use (the executor pools its per-call
// buffers and serializes pooled-backend regions).
type WHTPlan struct {
	n   int
	opt Options
	planCore
}

// NewWHTPlan prepares a WHT of size n (a power of two ≥ 2). A parallel plan
// needs Workers a power of two with (Workers·CacheLineComplex)² dividing n
// (ir.WHTSplit); otherwise it falls back to sequential.
func NewWHTPlan(n int, o *Options) (*WHTPlan, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("%w: WHT size must be a power of two ≥ 2, got %d", ErrInvalidSize, n)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	opt := o.withDefaults()
	k := 0
	for v := n; v > 1; v >>= 1 {
		k++
	}
	p := &WHTPlan{n: n, opt: opt}
	p.init(tkWHT, int64(n)*int64(k))
	p.initComplexLeases(n, n)
	p.lowerInverse = func(w int) (*ir.Program, error) { return ir.LowerWHTInverse(n, w, opt.CacheLineComplex) }
	// The program is the parallel two-stage schedule when an admissible
	// split exists for the workers, the sequential one otherwise.
	prog, err := ir.LowerWHT(n, opt.Workers, opt.CacheLineComplex)
	if err != nil {
		return nil, err
	}
	build := func(b smp.Backend) (*ir.Executor, error) { return ir.NewExecutor(prog, b) }
	if err := p.compile(opt, prog.P, build, build); err != nil {
		return nil, err
	}
	return p, nil
}

// N returns the transform size.
func (p *WHTPlan) N() int { return p.n }

// Len returns the required slice length for Forward/Inverse (equal to N;
// see Sized for the generic contract).
func (p *WHTPlan) Len() int { return p.n }

// IsParallel reports whether the plan uses multiple workers.
func (p *WHTPlan) IsParallel() bool { return p.parallel() }

// Program returns the lowered IR program the plan executes. The program is
// shared — callers must not mutate it.
func (p *WHTPlan) Program() *ir.Program { return p.program() }

// Transform computes dst = WHT_n(src); dst == src is allowed. The WHT is
// self-inverse up to 1/n: Transform∘Transform = n·identity.
// Transform is safe for concurrent use.
func (p *WHTPlan) Transform(dst, src []complex128) error { return p.TransformCtx(nil, dst, src) }

// TransformCtx is Transform under a context: cancellation is observed
// before the transform starts and at region boundaries; on cancellation
// the error is ctx.Err() and dst is unspecified. A nil ctx behaves like
// Transform.
func (p *WHTPlan) TransformCtx(ctx context.Context, dst, src []complex128) error {
	if len(dst) != p.n || len(src) != p.n {
		return lengthError("WHT.Transform", p.n, len(dst), len(src))
	}
	return p.forward(ctx, dst, src)
}

// Forward is Transform under the name the Transformer interface requires
// (the WHT has no twiddle direction; "forward" is the plain transform).
func (p *WHTPlan) Forward(dst, src []complex128) error { return p.TransformCtx(nil, dst, src) }

// ForwardCtx is TransformCtx under the ContextTransformer name.
func (p *WHTPlan) ForwardCtx(ctx context.Context, dst, src []complex128) error {
	return p.TransformCtx(ctx, dst, src)
}

// Inverse computes the inverse WHT: Transform scaled by 1/n, with the
// scale folded into the last stage. dst == src is allowed.
// Inverse is safe for concurrent use.
func (p *WHTPlan) Inverse(dst, src []complex128) error { return p.InverseCtx(nil, dst, src) }

// InverseCtx is Inverse under a context, with the same cancellation
// contract as TransformCtx.
func (p *WHTPlan) InverseCtx(ctx context.Context, dst, src []complex128) error {
	if len(dst) != p.n || len(src) != p.n {
		return lengthError("WHT.Inverse", p.n, len(dst), len(src))
	}
	return p.inverse(ctx, dst, src)
}

// Formula returns the fully optimized SPL formula for the plan's
// configuration (parallel plans; sequential plans return "WHT_n"). It is
// derived with ir.WHTSplit, the split the program runs, so its WHT_{n/p}
// and WHT_p leaves are the program's two stages.
func (p *WHTPlan) Formula() string {
	if f, _, ok := p.derive(); ok {
		return f.String()
	}
	return fmt.Sprintf("WHT_%d", p.n)
}

// Derivation returns the rewriting derivation of the plan's formula
// (parallel plans only; sequential plans return the empty string).
func (p *WHTPlan) Derivation() string {
	if _, trace, ok := p.derive(); ok {
		return trace.String()
	}
	return ""
}

// derive derives a parallel plan's formula with the split its program runs;
// ok is false for a sequential plan.
func (p *WHTPlan) derive() (spl.Formula, rewrite.Trace, bool) {
	if !p.parallel() {
		return nil, rewrite.Trace{}, false
	}
	a, _ := ir.WHTSplit(p.n, p.opt.Workers, p.opt.CacheLineComplex)
	k := 0
	for v := p.n; v > 1; v >>= 1 {
		k++
	}
	f, trace, err := rewrite.DeriveMulticoreWHT(k, a, p.opt.Workers, p.opt.CacheLineComplex)
	return f, trace, err == nil
}

// Close releases the worker pool (if any). Idempotent; later transforms
// fail with ErrClosed, while IsParallel, Formula, Program and Snapshot keep
// reporting the plan as built.
func (p *WHTPlan) Close() { p.release() }
