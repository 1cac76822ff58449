package spiralfft

import (
	"math/cmplx"
	"strings"
	"testing"
	"testing/quick"

	"spiralfft/internal/complexvec"
	"spiralfft/internal/twiddle"
)

// ref2D computes the 2D DFT from the definition.
func ref2D(x []complex128, rows, cols int) []complex128 {
	y := make([]complex128, rows*cols)
	for k := 0; k < rows; k++ {
		for l := 0; l < cols; l++ {
			for i := 0; i < rows; i++ {
				for j := 0; j < cols; j++ {
					y[k*cols+l] += twiddle.Omega(rows, k*i) * twiddle.Omega(cols, l*j) * x[i*cols+j]
				}
			}
		}
	}
	return y
}

func TestPlan2DMatchesDefinition(t *testing.T) {
	for _, c := range []struct{ rows, cols int }{
		{4, 4}, {8, 16}, {16, 8}, {3, 5}, {32, 8},
	} {
		for _, opts := range []*Options{nil, {Workers: 2}} {
			p, err := NewPlan2D(c.rows, c.cols, opts)
			if err != nil {
				t.Fatalf("%+v: %v", c, err)
			}
			x := complexvec.Random(c.rows*c.cols, uint64(c.rows+c.cols))
			got := make([]complex128, len(x))
			if err := p.Forward(got, x); err != nil {
				t.Fatal(err)
			}
			want := ref2D(x, c.rows, c.cols)
			if e := complexvec.RelError(got, want); e > 1e-10 {
				t.Errorf("%+v opts %+v: rel error %g", c, opts, e)
			}
			p.Close()
		}
	}
}

func TestPlan2DParallelUsedWhenPreconditionsHold(t *testing.T) {
	// p=2, µ=4: needs 2 | rows and 8 | cols.
	p, err := NewPlan2D(64, 64, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.IsParallel() {
		t.Error("expected parallel 2D plan")
	}
	r, c := p.Size()
	if r != 64 || c != 64 || p.Len() != 4096 {
		t.Error("Size/Len wrong")
	}
	f := p.Formula()
	for _, want := range []string{"⊗∥", "⊗̄", "DFT_64"} {
		if !strings.Contains(f, want) {
			t.Errorf("Formula %q missing %q", f, want)
		}
	}
	if d := p.Derivation(); !strings.Contains(d, "row-column") || !strings.HasSuffix(d, "= "+f+"\n") {
		t.Errorf("Derivation does not derive the formula by the row-column rule:\n%s", d)
	}
	// Odd columns break the µ precondition: sequential fallback.
	q, err := NewPlan2D(64, 63, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer q.Close()
	if q.IsParallel() {
		t.Error("expected sequential fallback for cols=63")
	}
	if !strings.Contains(q.Formula(), "(DFT_64 ⊗ DFT_63)") || q.Derivation() != "" {
		t.Errorf("sequential formula %q, derivation %q", q.Formula(), q.Derivation())
	}
}

func TestPlan2DRoundtripAndInPlace(t *testing.T) {
	p, err := NewPlan2D(32, 64, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x := complexvec.Random(32*64, 11)
	buf := complexvec.Clone(x)
	if err := p.Forward(buf, buf); err != nil {
		t.Fatal(err)
	}
	if err := p.Inverse(buf, buf); err != nil {
		t.Fatal(err)
	}
	if e := complexvec.RelError(buf, x); e > 1e-10 {
		t.Errorf("2D roundtrip error %g", e)
	}
}

func TestPlan2DErrors(t *testing.T) {
	if _, err := NewPlan2D(0, 4, nil); err == nil {
		t.Error("accepted rows=0")
	}
	if _, err := NewPlan2D(4, 0, nil); err == nil {
		t.Error("accepted cols=0")
	}
	p, err := NewPlan2D(4, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Forward(make([]complex128, 8), make([]complex128, 16)); err == nil {
		t.Error("accepted short dst")
	}
	if err := p.Inverse(make([]complex128, 16), make([]complex128, 8)); err == nil {
		t.Error("accepted short src")
	}
}

// Property: a 2D impulse at (a, b) transforms to the product of the two
// twiddle columns: Y[k, l] = ω_rows^{ka} · ω_cols^{lb}.
func TestQuickPlan2DImpulse(t *testing.T) {
	rows, cols := 16, 32
	p, err := NewPlan2D(rows, cols, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f := func(aRaw, bRaw uint8) bool {
		a := int(aRaw) % rows
		b := int(bRaw) % cols
		x := make([]complex128, rows*cols)
		x[a*cols+b] = 1
		y := make([]complex128, rows*cols)
		if p.Forward(y, x) != nil {
			return false
		}
		for k := 0; k < rows; k++ {
			for l := 0; l < cols; l++ {
				want := twiddle.Omega(rows, k*a) * twiddle.Omega(cols, l*b)
				if cmplx.Abs(y[k*cols+l]-want) > 1e-10 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
