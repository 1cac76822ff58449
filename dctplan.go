package spiralfft

import (
	"context"
	"fmt"
	"math/cmplx"
	"sync"

	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/metrics"
	"spiralfft/internal/twiddle"
)

// DCTPlan computes the type-II discrete cosine transform (and its inverse,
// the scaled DCT-III) of real signals of length n:
//
//	C[k] = Σ_{j<n} x[j]·cos(π·k·(2j+1)/(2n)),   k = 0..n-1   (unnormalized)
//
// via Makhoul's reduction to one n-point complex DFT: the input is
// reordered (evens ascending, odds descending), transformed with the
// library's (possibly parallel) DFT plan, and rotated by a quarter-sample
// phase. The DCT is the workhorse of block transforms (JPEG/audio), another
// member of the transform class the Spiral framework targets.
// A DCTPlan is safe for concurrent use (per-call workspace is pooled).
type DCTPlan struct {
	n     int
	inner *Plan
	w     []complex128 // e^{-iπk/(2n)}, k = 0..n-1
	// work pools the per-call reordering workspace (*dctWork).
	work sync.Pool
	// planCore carries the transform recorder (the inner complex DFT
	// dominates the flop count) and delegates pool and barrier statistics
	// to the inner plan.
	planCore
}

// dctWork is one call's reordering workspace (pooling the pointer keeps the
// steady state allocation-free).
type dctWork struct{ v []complex128 }

// NewDCTPlan prepares a DCT-II of size n ≥ 1.
func NewDCTPlan(n int, o *Options) (*DCTPlan, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: DCT size %d", ErrInvalidSize, n)
	}
	inner, err := NewPlan(n, o)
	if err != nil {
		return nil, err
	}
	w := make([]complex128, n)
	for k := range w {
		w[k] = twiddle.Omega(4*n, k) // e^{-2πik/(4n)} = e^{-iπk/(2n)}
	}
	p := &DCTPlan{n: n, inner: inner, w: w}
	p.init(tkDCT, int64(exec.FlopCount(n)))
	p.work.New = func() any { return &dctWork{v: make([]complex128, n)} }
	p.initFloatLeases(n, n)
	p.planCore.inner = inner
	return p, nil
}

// N returns the transform size.
func (p *DCTPlan) N() int { return p.n }

// IsParallel reports whether the inner DFT plan runs on multiple workers.
func (p *DCTPlan) IsParallel() bool { return p.inner.IsParallel() }

// Program returns the lowered IR program of the inner n-point DFT that
// Forward runs between Makhoul's reordering and the quarter-sample rotation.
// The program is shared — callers must not mutate it.
func (p *DCTPlan) Program() *ir.Program { return p.inner.Program() }

// Forward computes the unnormalized DCT-II of src into dst (both length n).
// Forward is safe for concurrent use.
func (p *DCTPlan) Forward(dst, src []float64) error {
	return p.ForwardCtx(nil, dst, src)
}

// ForwardCtx is Forward under a context: cancellation is observed before
// the inner DFT and at its region boundaries; on cancellation the error is
// ctx.Err() and dst is unspecified. A nil ctx behaves like Forward. Region
// panics surface as *RegionPanicError (see Plan.Forward).
func (p *DCTPlan) ForwardCtx(ctx context.Context, dst, src []float64) error {
	if len(dst) != p.n || len(src) != p.n {
		return fmt.Errorf("%w: DCT Forward: dst %d, src %d, want %d", ErrLengthMismatch, len(dst), len(src), p.n)
	}
	start := metrics.Now()
	b := p.work.Get().(*dctWork)
	defer p.work.Put(b)
	v := b.v
	n := p.n
	// Makhoul reordering: evens ascending then odds descending.
	for j := 0; 2*j < n; j++ {
		v[j] = complex(src[2*j], 0)
	}
	for j := 0; 2*j+1 < n; j++ {
		v[n-1-j] = complex(src[2*j+1], 0)
	}
	if err := p.inner.ForwardCtx(ctx, v, v); err != nil {
		return err
	}
	for k := 0; k < n; k++ {
		dst[k] = real(p.w[k] * v[k])
	}
	p.record(start)
	return nil
}

// Inverse reconstructs the signal from its unnormalized DCT-II
// coefficients: Inverse(Forward(x)) == x (it applies the appropriately
// scaled DCT-III).
func (p *DCTPlan) Inverse(dst, src []float64) error {
	return p.InverseCtx(nil, dst, src)
}

// InverseCtx is Inverse under a context, with the same cancellation
// contract as ForwardCtx.
func (p *DCTPlan) InverseCtx(ctx context.Context, dst, src []float64) error {
	if len(dst) != p.n || len(src) != p.n {
		return fmt.Errorf("%w: DCT Inverse: dst %d, src %d, want %d", ErrLengthMismatch, len(dst), len(src), p.n)
	}
	start := metrics.Now()
	b := p.work.Get().(*dctWork)
	defer p.work.Put(b)
	v := b.v
	n := p.n
	// Rebuild the DFT spectrum: V[k] = e^{iπk/(2n)}·(C[k] - i·C[n-k]),
	// V[0] = C[0] (conjugate symmetry of the real reordered signal).
	v[0] = complex(src[0], 0)
	for k := 1; k < n; k++ {
		v[k] = cmplx.Conj(p.w[k]) * complex(src[k], -src[n-k])
	}
	if err := p.inner.InverseCtx(ctx, v, v); err != nil {
		return err
	}
	for j := 0; 2*j < n; j++ {
		dst[2*j] = real(v[j])
	}
	for j := 0; 2*j+1 < n; j++ {
		dst[2*j+1] = real(v[n-1-j])
	}
	p.record(start)
	return nil
}

// Close releases the inner plan's resources; later transforms fail with
// ErrClosed.
func (p *DCTPlan) Close() { p.inner.Close() }
