package spiralfft

import (
	"context"
	"errors"
	"strings"
	"testing"

	"spiralfft/internal/complexvec"
	"spiralfft/internal/faultinject"
)

// TestTransformRegionPanicContainment is the acceptance test for the fault
// containment chain: a panic injected into worker 1 of a 4-worker parallel
// plan must surface on the caller's goroutine as a *RegionPanicError naming
// that worker, and the very same plan (same pool) must then complete a
// correct transform before Close.
func TestTransformRegionPanicContainment(t *testing.T) {
	p, err := NewPlan(1024, &Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.IsParallel() {
		t.Fatalf("1024-point 4-worker plan is not parallel (tree %s)", p.Tree())
	}
	x := complexvec.Random(1024, 7)
	dst := make([]complex128, 1024)

	func() {
		disarm := faultinject.Arm(faultinject.Config{Worker: 1, PanicAt: 1})
		defer disarm()
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("injected worker panic was swallowed by Forward")
			}
			rp, ok := r.(*RegionPanicError)
			if !ok {
				t.Fatalf("re-panic value is %T (%v), want *RegionPanicError", r, r)
			}
			if rp.Worker != 1 {
				t.Errorf("RegionPanicError.Worker = %d, want 1", rp.Worker)
			}
			if !strings.Contains(rp.Error(), "worker 1") {
				t.Errorf("error text does not name the worker: %s", rp.Error())
			}
			if len(rp.Stack) == 0 {
				t.Error("no worker stack captured")
			}
		}()
		p.Forward(dst, x)
	}()

	// The same plan — same executor, same pool — must now work.
	if err := p.Forward(dst, x); err != nil {
		t.Fatalf("post-panic Forward: %v", err)
	}
	if e := complexvec.RelError(dst, refDFT(x)); e > tol {
		t.Errorf("post-panic transform wrong by %g", e)
	}
}

// TestRegionPanicErrorUnwrap: a panic(err) inside a region must stay
// matchable with errors.Is through the RegionPanicError chain.
func TestRegionPanicErrorUnwrap(t *testing.T) {
	p, err := NewPlan(1024, &Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	sentinel := errors.New("poisoned twiddle table")
	disarm := faultinject.Arm(faultinject.Config{Worker: 2, PanicAt: 1, PanicValue: sentinel})
	defer disarm()
	defer func() {
		r := recover()
		rp, ok := r.(*RegionPanicError)
		if !ok {
			t.Fatalf("re-panic value is %T, want *RegionPanicError", r)
		}
		if !errors.Is(rp, sentinel) {
			t.Error("errors.Is(rp, sentinel) = false; Unwrap chain broken")
		}
	}()
	dst := make([]complex128, 1024)
	p.Forward(dst, complexvec.Random(1024, 8))
}

// TestForwardCtxPreCancelled: an already-cancelled context returns promptly
// without entering a single region, for both execution paths.
func TestForwardCtxPreCancelled(t *testing.T) {
	for _, workers := range []int{1, 4} {
		p, err := NewPlan(1024, &Options{Workers: workers})
		if err != nil {
			t.Fatal(err)
		}
		ctx, cancel := context.WithCancel(context.Background())
		cancel()
		// Counting-only arm: every region entry bumps the counter.
		disarm := faultinject.Arm(faultinject.Config{Worker: faultinject.AnyWorker})
		dst := make([]complex128, 1024)
		err = p.ForwardCtx(ctx, dst, make([]complex128, 1024))
		ran := faultinject.Count()
		disarm()
		if !errors.Is(err, context.Canceled) {
			t.Errorf("workers=%d: ForwardCtx = %v, want context.Canceled", workers, err)
		}
		if ran != 0 {
			t.Errorf("workers=%d: %d region entries ran despite pre-cancelled ctx", workers, ran)
		}
		p.Close()
	}
}

// TestForwardCtxCancelMidTransform cancels via the injection hook as worker
// 0 enters its first region: the call returns ctx.Err() and the plan remains
// fully usable.
func TestForwardCtxCancelMidTransform(t *testing.T) {
	p, err := NewPlan(1024, &Options{Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x := complexvec.Random(1024, 9)
	dst := make([]complex128, 1024)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	disarm := faultinject.Arm(faultinject.Config{Worker: 0, CancelAt: 1, Cancel: cancel})
	err = p.ForwardCtx(ctx, dst, x)
	disarm()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForwardCtx = %v, want context.Canceled", err)
	}
	if err := p.ForwardCtx(context.Background(), dst, x); err != nil {
		t.Fatalf("post-cancel ForwardCtx: %v", err)
	}
	if e := complexvec.RelError(dst, refDFT(x)); e > tol {
		t.Errorf("post-cancel transform wrong by %g", e)
	}
}

// TestInverseCtxCancelled covers the inverse path's cancellation plumbing
// (the inverse program's executor, built on first use, must come through a
// cancelled call intact).
func TestInverseCtxCancelled(t *testing.T) {
	p, err := NewPlan(256, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	dst := make([]complex128, 256)
	if err := p.InverseCtx(ctx, dst, make([]complex128, 256)); !errors.Is(err, context.Canceled) {
		t.Fatalf("InverseCtx = %v, want context.Canceled", err)
	}
	// The inverse executor survives the cancelled call; a plain Inverse
	// still works.
	x := complexvec.Random(256, 10)
	fwd := make([]complex128, 256)
	if err := p.Forward(fwd, x); err != nil {
		t.Fatal(err)
	}
	if err := p.Inverse(dst, fwd); err != nil {
		t.Fatal(err)
	}
	if e := complexvec.RelError(dst, x); e > tol {
		t.Errorf("post-cancel roundtrip wrong by %g", e)
	}
}

// TestPlan2DCtxDeterministicPrefix pins down the "deterministic prefix"
// clause of the cancellation contract on the sequential 2D program, whose
// region structure is exactly [rows | barrier | cols]: a context cancelled
// at the first region entry lets the row stage finish and skips the column
// stage, so dst holds the per-row DFTs of src.
func TestPlan2DCtxDeterministicPrefix(t *testing.T) {
	const rows, cols = 8, 16
	p, err := NewPlan2D(rows, cols, &Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.IsParallel() {
		t.Fatal("expected a sequential 2D plan")
	}
	x := complexvec.Random(rows*cols, 11)
	dst := make([]complex128, rows*cols)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	// The hook fires at the program's first region entry — after the
	// pre-transform ctx check, before the stage barrier observes it.
	disarm := faultinject.Arm(faultinject.Config{Worker: 0, CancelAt: 1, Cancel: cancel})
	err = p.ForwardCtx(ctx, dst, x)
	disarm()
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForwardCtx = %v, want context.Canceled", err)
	}
	for r := 0; r < rows; r++ {
		got := dst[r*cols : (r+1)*cols]
		want := refDFT(x[r*cols : (r+1)*cols])
		if e := complexvec.RelError(got, want); e > tol {
			t.Errorf("row %d is not the row-stage DFT (err %g): column stage ran past the cancel", r, e)
		}
	}
	// And uncancelled, the same plan computes the full 2D transform.
	if err := p.Forward(dst, x); err != nil {
		t.Fatal(err)
	}
	want := ref2D(x, rows, cols)
	if e := complexvec.RelError(dst, want); e > tol {
		t.Errorf("post-cancel 2D transform wrong by %g", e)
	}
}

// TestSTFTAnalyzeCtxCancelled: the frame loop observes cancellation between
// frames.
func TestSTFTAnalyzeCtxCancelled(t *testing.T) {
	p, err := NewSTFTPlan(64, 32, WindowHann, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	signal := make([]float64, 64*8)
	for i := range signal {
		signal[i] = float64(i % 17)
	}
	dst := p.NewSpectrogram(len(signal))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := p.AnalyzeCtx(ctx, dst, signal); !errors.Is(err, context.Canceled) {
		t.Fatalf("AnalyzeCtx = %v, want context.Canceled", err)
	}
	if err := p.Analyze(dst, signal); err != nil {
		t.Fatalf("post-cancel Analyze: %v", err)
	}
}
