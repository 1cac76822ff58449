package spiralfft

import (
	"context"
	"fmt"
	"unsafe"

	"spiralfft/internal/ir"
)

// RealPlan computes DFTs of real-valued inputs of even length n using the
// standard packing reduction: the n real samples, read in place as n/2
// complex points z[j] = x[2j] + i·x[2j+1], go through an n/2-point complex
// transform, and the spectrum is untangled afterwards, so a real transform
// costs roughly half a complex one. The untangling (and, for Inverse, the
// retangling before the transform) is a region of the plan's IR program
// (ir.RealForward, ir.RealInverse): it runs on the plan's workers, and
// Program shows it.
//
// Since the input is real the spectrum is conjugate-symmetric; Forward
// produces only the n/2+1 non-redundant bins X[0..n/2].
//
// A RealPlan is safe for concurrent use (the executor pools its per-call
// buffers).
type RealPlan struct {
	n int
	// half plans the n/2-point complex DFT and runs the real-input programs
	// built around it. Its core records this plan's transforms (a real
	// transform's nominal flop count is half the complex one,
	// 2.5·n·log2(n)) and holds its backend and lease arena.
	half *Plan
	// onClose, when set, redirects Close to the owning Cache's ref-count
	// release instead of destroying the plan.
	onClose func()
}

// NewRealPlan prepares a real-input DFT of even size n ≥ 2.
func NewRealPlan(n int, o *Options) (*RealPlan, error) {
	if n < 2 || n%2 != 0 {
		return nil, fmt.Errorf("%w: real plan needs even n ≥ 2, got %d", ErrInvalidSize, n)
	}
	half, err := newPlan(n/2, o, true)
	if err != nil {
		return nil, err
	}
	return &RealPlan{n: n, half: half}, nil
}

// N returns the (real) transform size.
func (p *RealPlan) N() int { return p.n }

// SpectrumLen returns the Forward output length, n/2 + 1.
func (p *RealPlan) SpectrumLen() int { return p.n/2 + 1 }

// IsParallel reports whether the plan runs on multiple workers.
func (p *RealPlan) IsParallel() bool { return p.half.IsParallel() }

// Program returns the lowered IR program Forward executes: the n/2-point
// complex DFT's regions followed by the untangle region. The program is
// shared — callers must not mutate it.
func (p *RealPlan) Program() *ir.Program { return p.half.program() }

// Snapshot returns the plan's observability record (see Plan.Snapshot).
func (p *RealPlan) Snapshot() PlanStats { return p.half.Snapshot() }

// Forward computes the non-redundant half spectrum of the real signal src:
// dst[k] = Σ_j exp(-2πi·kj/n)·src[j] for k = 0..n/2.
// len(src) must be n and len(dst) must be n/2+1.
// Forward is safe for concurrent use.
func (p *RealPlan) Forward(dst []complex128, src []float64) error {
	return p.ForwardCtx(nil, dst, src)
}

// ForwardCtx is Forward under a context: cancellation is observed before
// the transform and at its region boundaries; on cancellation the error is
// ctx.Err() and dst is unspecified. A nil ctx behaves like Forward. Region
// panics surface as *RegionPanicError (see Plan.Forward).
func (p *RealPlan) ForwardCtx(ctx context.Context, dst []complex128, src []float64) error {
	if len(src) != p.n || len(dst) != p.n/2+1 {
		return fmt.Errorf("%w: RealPlan.Forward: src %d (want %d), dst %d (want %d)",
			ErrLengthMismatch, len(src), p.n, len(dst), p.n/2+1)
	}
	return p.half.forward(ctx, dst, complexView(src))
}

// Inverse reconstructs the real signal from its half spectrum: it is the
// exact inverse of Forward (unitary convention, matching Plan.Inverse).
// len(src) must be n/2+1 and len(dst) must be n. The imaginary parts of
// src[0] and src[n/2] are ignored (they are zero for any real signal).
func (p *RealPlan) Inverse(dst []float64, src []complex128) error {
	return p.InverseCtx(nil, dst, src)
}

// InverseCtx is Inverse under a context, with the same cancellation
// contract as ForwardCtx.
func (p *RealPlan) InverseCtx(ctx context.Context, dst []float64, src []complex128) error {
	if len(src) != p.n/2+1 || len(dst) != p.n {
		return fmt.Errorf("%w: RealPlan.Inverse: src %d (want %d), dst %d (want %d)",
			ErrLengthMismatch, len(src), p.n/2+1, len(dst), p.n)
	}
	return p.half.inverse(ctx, complexView(dst), src)
}

// complexView reads an even-length float64 slice as the complex128 slice of
// its consecutive pairs, sharing the memory (complex128 is two float64s and
// needs no stricter alignment).
func complexView(x []float64) []complex128 {
	return unsafe.Slice((*complex128)(unsafe.Pointer(unsafe.SliceData(x))), len(x)/2)
}

// Close releases the plan. Cache-owned plans release one reference; owned
// plans close the inner complex plan.
func (p *RealPlan) Close() {
	if p.onClose != nil {
		p.onClose()
		return
	}
	p.destroy()
}

// destroy closes the inner plan unconditionally (bypassing any cache hook).
func (p *RealPlan) destroy() { p.half.destroy() }
