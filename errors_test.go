package spiralfft_test

import (
	"errors"
	"testing"

	fft "spiralfft"
)

// TestInvalidSizeSentinel: every constructor rejects bad sizes with an
// error matching ErrInvalidSize under errors.Is.
func TestInvalidSizeSentinel(t *testing.T) {
	cases := []struct {
		name string
		err  func() error
	}{
		{"NewPlan(0)", func() error { _, err := fft.NewPlan(0, nil); return err }},
		{"NewPlan(-4)", func() error { _, err := fft.NewPlan(-4, nil); return err }},
		{"NewBatchPlan(0,3)", func() error { _, err := fft.NewBatchPlan(0, 3, nil); return err }},
		{"NewBatchPlan(8,0)", func() error { _, err := fft.NewBatchPlan(8, 0, nil); return err }},
		{"NewRealPlan(odd)", func() error { _, err := fft.NewRealPlan(7, nil); return err }},
		{"NewPlan2D(0,8)", func() error { _, err := fft.NewPlan2D(0, 8, nil); return err }},
		{"NewDCTPlan(0)", func() error { _, err := fft.NewDCTPlan(0, nil); return err }},
		{"NewSTFTPlan(odd frame)", func() error { _, err := fft.NewSTFTPlan(7, 2, fft.WindowHann, nil); return err }},
		{"NewSTFTPlan(bad hop)", func() error { _, err := fft.NewSTFTPlan(8, 0, fft.WindowHann, nil); return err }},
		{"NewWHTPlan(non-pow2)", func() error { _, err := fft.NewWHTPlan(6, nil); return err }},
		{"Acquire(0)", func() error { _, err := fft.Acquire[*fft.Plan](0, nil); return err }},
	}
	for _, c := range cases {
		err := c.err()
		if err == nil {
			t.Errorf("%s: no error", c.name)
			continue
		}
		if !errors.Is(err, fft.ErrInvalidSize) {
			t.Errorf("%s: err = %v, does not match ErrInvalidSize", c.name, err)
		}
	}
}

// TestInvalidOptionsSentinel: Options.Validate and every constructor
// reject malformed options with ErrInvalidOptions.
func TestInvalidOptionsSentinel(t *testing.T) {
	bad := []*fft.Options{
		{Workers: -1},
		{CacheLineComplex: -4},
		{Backend: fft.Backend(99)},
		{Planner: fft.Planner(99)},
	}
	for i, o := range bad {
		if err := o.Validate(); !errors.Is(err, fft.ErrInvalidOptions) {
			t.Errorf("bad[%d].Validate() = %v, want ErrInvalidOptions", i, err)
		}
	}
	// A nil and a zero Options are valid.
	var o *fft.Options
	if err := o.Validate(); err != nil {
		t.Errorf("nil Options.Validate() = %v, want nil", err)
	}
	if err := (&fft.Options{}).Validate(); err != nil {
		t.Errorf("zero Options.Validate() = %v, want nil", err)
	}

	ctors := []struct {
		name string
		err  func(o *fft.Options) error
	}{
		{"NewPlan", func(o *fft.Options) error { _, err := fft.NewPlan(8, o); return err }},
		{"NewBatchPlan", func(o *fft.Options) error { _, err := fft.NewBatchPlan(8, 2, o); return err }},
		{"NewRealPlan", func(o *fft.Options) error { _, err := fft.NewRealPlan(8, o); return err }},
		{"NewPlan2D", func(o *fft.Options) error { _, err := fft.NewPlan2D(4, 4, o); return err }},
		{"NewDCTPlan", func(o *fft.Options) error { _, err := fft.NewDCTPlan(8, o); return err }},
		{"NewSTFTPlan", func(o *fft.Options) error { _, err := fft.NewSTFTPlan(8, 4, fft.WindowHann, o); return err }},
		{"NewWHTPlan", func(o *fft.Options) error { _, err := fft.NewWHTPlan(8, o); return err }},
		{"Cache.Plan", func(o *fft.Options) error { var c fft.Cache; _, err := c.Plan(8, o); return err }},
	}
	badOpt := &fft.Options{Workers: -3}
	for _, c := range ctors {
		if err := c.err(badOpt); !errors.Is(err, fft.ErrInvalidOptions) {
			t.Errorf("%s with Workers=-3: err = %v, want ErrInvalidOptions", c.name, err)
		}
	}
}

// TestLengthMismatchSentinel: transform methods report wrong slice lengths
// with ErrLengthMismatch.
func TestLengthMismatchSentinel(t *testing.T) {
	p, err := fft.NewPlan(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	short := make([]complex128, 8)
	full := make([]complex128, 16)
	if err := p.Forward(short, full); !errors.Is(err, fft.ErrLengthMismatch) {
		t.Errorf("Plan.Forward short dst: %v, want ErrLengthMismatch", err)
	}
	if err := p.Inverse(full, short); !errors.Is(err, fft.ErrLengthMismatch) {
		t.Errorf("Plan.Inverse short src: %v, want ErrLengthMismatch", err)
	}

	rp, err := fft.NewRealPlan(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer rp.Close()
	if err := rp.Forward(make([]complex128, 3), make([]float64, 16)); !errors.Is(err, fft.ErrLengthMismatch) {
		t.Errorf("RealPlan.Forward short dst: %v, want ErrLengthMismatch", err)
	}

	bp, err := fft.NewBatchPlan(8, 3, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer bp.Close()
	if err := bp.Forward(make([]complex128, 8), make([]complex128, 24)); !errors.Is(err, fft.ErrLengthMismatch) {
		t.Errorf("BatchPlan.Forward short dst: %v, want ErrLengthMismatch", err)
	}

	dp, err := fft.NewDCTPlan(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer dp.Close()
	if err := dp.Forward(make([]float64, 4), make([]float64, 8)); !errors.Is(err, fft.ErrLengthMismatch) {
		t.Errorf("DCTPlan.Forward short dst: %v, want ErrLengthMismatch", err)
	}

	sp, err := fft.NewSTFTPlan(8, 4, fft.WindowHann, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sp.Close()
	if err := sp.Forward(make([]complex128, 2), make([]float64, 8)); !errors.Is(err, fft.ErrLengthMismatch) {
		t.Errorf("STFTPlan.Forward short dst: %v, want ErrLengthMismatch", err)
	}

	wp, err := fft.NewWHTPlan(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()
	if err := wp.Transform(make([]complex128, 4), make([]complex128, 8)); !errors.Is(err, fft.ErrLengthMismatch) {
		t.Errorf("WHTPlan.Transform short dst: %v, want ErrLengthMismatch", err)
	}

	p2, err := fft.NewPlan2D(4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if err := p2.Forward(make([]complex128, 15), make([]complex128, 16)); !errors.Is(err, fft.ErrLengthMismatch) {
		t.Errorf("Plan2D.Forward short dst: %v, want ErrLengthMismatch", err)
	}
}

// TestTransformerInterfaceUse drives plans through the Transformer
// interface value, the way generic pipeline code would hold them.
func TestTransformerInterfaceUse(t *testing.T) {
	mk := []struct {
		name string
		open func() (fft.Transformer, error)
	}{
		{"Plan", func() (fft.Transformer, error) { return fft.NewPlan(16, nil) }},
		{"BatchPlan", func() (fft.Transformer, error) { return fft.NewBatchPlan(16, 1, nil) }},
		{"Plan2D", func() (fft.Transformer, error) { return fft.NewPlan2D(4, 4, nil) }},
		{"WHTPlan", func() (fft.Transformer, error) { return fft.NewWHTPlan(16, nil) }},
	}
	for _, m := range mk {
		tr, err := m.open()
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		n := tr.N()
		src := make([]complex128, n)
		src[1] = 1
		dst := make([]complex128, n)
		if err := tr.Forward(dst, src); err != nil {
			t.Fatalf("%s.Forward: %v", m.name, err)
		}
		if err := tr.Inverse(dst, dst); err != nil {
			t.Fatalf("%s.Inverse: %v", m.name, err)
		}
		for i := range dst {
			want := complex128(0)
			if i == 1 {
				want = 1
			}
			d := dst[i] - want
			if real(d)*real(d)+imag(d)*imag(d) > 1e-16 {
				t.Fatalf("%s: round-trip[%d] = %v, want %v", m.name, i, dst[i], want)
			}
		}
		tr.Close()
	}

	var rt fft.RealTransformer[[]complex128] = mustRealPlan(t, 16)
	defer rt.Close()
	spec := make([]complex128, 16/2+1)
	sig := make([]float64, 16)
	sig[2] = 1
	if err := rt.Forward(spec, sig); err != nil {
		t.Fatal(err)
	}
	out := make([]float64, 16)
	if err := rt.Inverse(out, spec); err != nil {
		t.Fatal(err)
	}
	for i := range out {
		if d := out[i] - sig[i]; d > 1e-9 || d < -1e-9 {
			t.Fatalf("RealTransformer round-trip[%d] = %g", i, out[i])
		}
	}
}

func mustRealPlan(t *testing.T, n int) *fft.RealPlan {
	t.Helper()
	p, err := fft.NewRealPlan(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	return p
}
