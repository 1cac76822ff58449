package spiralfft

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"
)

// closedFamily is one plan of a family under the use-after-Close contract:
// its introspection rendered as a string, and every transform method.
type closedFamily struct {
	name     string
	parallel bool
	describe func() string
	calls    map[string]func() error
	close    func()
}

// closedFamilies builds one plan of each of the seven families for opt.
// Their sizes admit a parallel split for two workers.
func closedFamilies(t *testing.T, opt *Options) []closedFamily {
	t.Helper()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	var fams []closedFamily

	p, err := NewPlan(256, opt)
	must(err)
	c := make([]complex128, 256)
	fams = append(fams, closedFamily{"Plan", p.IsParallel(), func() string {
		m, k := p.Split()
		return fmt.Sprintf("%v %d %d·%d %s %s %s %p", p.IsParallel(), p.Workers(), m, k, p.Tree(), p.Formula(), p.Derivation(), p.Program())
	}, map[string]func() error{
		"Forward":    func() error { return p.Forward(c, c) },
		"ForwardCtx": func() error { return p.ForwardCtx(ctx, c, c) },
		"Inverse":    func() error { return p.Inverse(c, c) },
		"InverseCtx": func() error { return p.InverseCtx(ctx, c, c) },
	}, p.Close})

	rp, err := NewRealPlan(512, opt)
	must(err)
	r, spec := make([]float64, 512), make([]complex128, 257)
	fams = append(fams, closedFamily{"RealPlan", rp.IsParallel(), func() string {
		return fmt.Sprintf("%v %p", rp.IsParallel(), rp.Program())
	}, map[string]func() error{
		"Forward":    func() error { return rp.Forward(spec, r) },
		"ForwardCtx": func() error { return rp.ForwardCtx(ctx, spec, r) },
		"Inverse":    func() error { return rp.Inverse(r, spec) },
		"InverseCtx": func() error { return rp.InverseCtx(ctx, r, spec) },
	}, rp.Close})

	bp, err := NewBatchPlan(64, 4, opt)
	must(err)
	bc := make([]complex128, 256)
	fams = append(fams, closedFamily{"BatchPlan", bp.Workers() > 1, func() string {
		return fmt.Sprintf("%d %p", bp.Workers(), bp.Program())
	}, map[string]func() error{
		"Forward":    func() error { return bp.Forward(bc, bc) },
		"ForwardCtx": func() error { return bp.ForwardCtx(ctx, bc, bc) },
		"Inverse":    func() error { return bp.Inverse(bc, bc) },
		"InverseCtx": func() error { return bp.InverseCtx(ctx, bc, bc) },
	}, bp.Close})

	p2, err := NewPlan2D(16, 32, opt)
	must(err)
	c2 := make([]complex128, 16*32)
	fams = append(fams, closedFamily{"Plan2D", p2.IsParallel(), func() string {
		return fmt.Sprintf("%v %s %p", p2.IsParallel(), p2.Formula(), p2.Program())
	}, map[string]func() error{
		"Forward":    func() error { return p2.Forward(c2, c2) },
		"ForwardCtx": func() error { return p2.ForwardCtx(ctx, c2, c2) },
		"Inverse":    func() error { return p2.Inverse(c2, c2) },
		"InverseCtx": func() error { return p2.InverseCtx(ctx, c2, c2) },
	}, p2.Close})

	wp, err := NewWHTPlan(256, opt)
	must(err)
	fams = append(fams, closedFamily{"WHTPlan", wp.IsParallel(), func() string {
		return fmt.Sprintf("%v %s %p", wp.IsParallel(), wp.Formula(), wp.Program())
	}, map[string]func() error{
		"Transform":    func() error { return wp.Transform(c, c) },
		"TransformCtx": func() error { return wp.TransformCtx(ctx, c, c) },
		"Forward":      func() error { return wp.Forward(c, c) },
		"ForwardCtx":   func() error { return wp.ForwardCtx(ctx, c, c) },
		"Inverse":      func() error { return wp.Inverse(c, c) },
		"InverseCtx":   func() error { return wp.InverseCtx(ctx, c, c) },
	}, wp.Close})

	dp, err := NewDCTPlan(256, opt)
	must(err)
	d := make([]float64, 256)
	fams = append(fams, closedFamily{"DCTPlan", dp.IsParallel(), func() string {
		return fmt.Sprint(dp.IsParallel())
	}, map[string]func() error{
		"Forward":    func() error { return dp.Forward(d, d) },
		"ForwardCtx": func() error { return dp.ForwardCtx(ctx, d, d) },
		"Inverse":    func() error { return dp.Inverse(d, d) },
		"InverseCtx": func() error { return dp.InverseCtx(ctx, d, d) },
	}, dp.Close})

	sp, err := NewSTFTPlan(512, 256, WindowHann, opt)
	must(err)
	sig, frames := make([]float64, 1024), sp.NewSpectrogram(1024)
	fams = append(fams, closedFamily{"STFTPlan", sp.rp.IsParallel(), func() string {
		return fmt.Sprintf("%d %d %d", sp.Frame(), sp.Hop(), sp.Bins())
	}, map[string]func() error{
		"Forward":       func() error { return sp.Forward(spec, r) },
		"Inverse":       func() error { return sp.Inverse(r, spec) },
		"Analyze":       func() error { return sp.Analyze(frames, sig) },
		"AnalyzeCtx":    func() error { return sp.AnalyzeCtx(ctx, frames, sig) },
		"Synthesize":    func() error { return sp.Synthesize(sig, frames) },
		"SynthesizeCtx": func() error { return sp.SynthesizeCtx(ctx, sig, frames) },
	}, sp.Close})
	return fams
}

// Every transform method of every family fails with ErrClosed after Close,
// sequential or parallel, and returns instead of waiting on the closed pool.
func TestClosedPlansReturnErrClosed(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, f := range closedFamilies(t, &Options{Workers: workers}) {
			if f.parallel != (workers > 1) {
				t.Fatalf("p=%d %s: parallel = %v", workers, f.name, f.parallel)
			}
			for name, call := range f.calls {
				if err := call(); err != nil {
					t.Fatalf("p=%d %s.%s before Close: %v", workers, f.name, name, err)
				}
			}
			f.close()
			done := make(chan struct{})
			go func() {
				defer close(done)
				for name, call := range f.calls {
					if err := call(); !errors.Is(err, ErrClosed) {
						t.Errorf("p=%d %s.%s after Close: err = %v, want ErrClosed", workers, f.name, name, err)
					}
				}
			}()
			select {
			case <-done:
			case <-time.After(10 * time.Second):
				t.Fatalf("p=%d %s: a transform after Close did not return", workers, f.name)
			}
		}
	}
}

// Introspection reports the plan that was built, before and after Close.
func TestClosedPlansKeepIntrospection(t *testing.T) {
	for _, workers := range []int{1, 2} {
		for _, f := range closedFamilies(t, &Options{Workers: workers}) {
			before := f.describe()
			f.close()
			if after := f.describe(); after != before {
				t.Errorf("p=%d %s: introspection changed across Close:\nbefore %s\nafter  %s", workers, f.name, before, after)
			}
		}
	}
}
