package spiralfft

import (
	"context"
	"fmt"
	"math"
	"math/cmplx"
	"sort"
	"testing"

	"spiralfft/internal/complexvec"
)

// The inverse/real correctness matrix: every inverse path and both real
// directions, plain and under a context, out of place and in place where
// the API allows it. Up to n = 4096 the reference is the definition (naive
// IDFT); at 2^16 it is the round trip plus an impulse and a tone, whose
// inverses are known in closed form. Errors are max-norm relative errors
// and must stay within c·log2(n)·ε.

// matrixC is the c of the c·log2(n)·ε bound.
const matrixC = 4

func matrixBound(n int) float64 { return matrixC * math.Log2(float64(n)+1) * 0x1p-52 }

// refIDFT is the unitary inverse DFT by definition.
func refIDFT(x []complex128) []complex128 {
	n := len(x)
	y := make([]complex128, n)
	for k := range y {
		var s complex128
		for j, v := range x {
			s += cmplx.Conj(omegaRef(n, j*k)) * v
		}
		y[k] = s / complex(float64(n), 0)
	}
	return y
}

// omegaRef is e^{-2πi·k/n} with k reduced modulo n.
func omegaRef(n, k int) complex128 {
	ang := -2 * math.Pi * float64(k%n) / float64(n)
	return complex(math.Cos(ang), math.Sin(ang))
}

// inverser is the inverse entry point pair every complex family exposes.
type inverser interface {
	Forward(dst, src []complex128) error
	Inverse(dst, src []complex128) error
	InverseCtx(ctx context.Context, dst, src []complex128) error
}

// runInverses applies p's inverse to src four ways (plain and ctx, out of
// place and in place) and returns the worst relative error against want.
func runInverses(t *testing.T, label string, p inverser, src, want []complex128) float64 {
	t.Helper()
	worst := 0.0
	for _, ctx := range []context.Context{nil, context.Background()} {
		for _, inPlace := range []bool{false, true} {
			dst := make([]complex128, len(src))
			in := src
			if inPlace {
				copy(dst, src)
				in = dst
			}
			var err error
			if ctx == nil {
				err = p.Inverse(dst, in)
			} else {
				err = p.InverseCtx(ctx, dst, in)
			}
			if err != nil {
				t.Fatalf("%s (ctx=%v in-place=%v): %v", label, ctx != nil, inPlace, err)
			}
			worst = math.Max(worst, complexvec.RelError(dst, want))
		}
	}
	return worst
}

func TestInverseMatrix(t *testing.T) {
	type dftCase struct {
		name string
		n    int
		opt  *Options
	}
	cases := []dftCase{
		{"tree n=8", 8, nil},
		{"tree n=1024", 1024, nil},
		{"tree n=4096", 4096, nil},
		{"bluestein n=1009", 1009, nil},
		{"ct p=2 pool n=1024", 1024, &Options{Workers: 2}},
		{"ct p=2 pool n=4096", 4096, &Options{Workers: 2}},
		{"ct p=2 spawn n=4096", 4096, &Options{Workers: 2, Backend: BackendSpawn}},
	}
	// errs records each case's worst error with its transform size.
	type result struct {
		n int
		e float64
	}
	errs := map[string]result{}
	for _, c := range cases {
		p, err := NewPlan(c.n, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		x := complexvec.Random(c.n, 31)
		e := runInverses(t, c.name, p, x, refIDFT(x))
		p.Close()
		errs["Plan "+c.name] = result{c.n, e}
	}

	// Four-step, forced at 2^16: round trip, impulse and tone.
	for _, w := range []int{1, 2} {
		n := 1 << 16
		p, err := NewPlan(n, &Options{Workers: w, LargeNThreshold: n})
		if err != nil {
			t.Fatal(err)
		}
		if !p.IsFourStep() {
			t.Fatalf("n=2^16 p=%d: not four-step", w)
		}
		label := fmt.Sprintf("Plan four-step p=%d n=2^16", w)
		x := complexvec.Random(n, 32)
		spec := make([]complex128, n)
		if err := p.Forward(spec, x); err != nil {
			t.Fatal(err)
		}
		e := runInverses(t, label+" round trip", p, spec, x)
		ones := make([]complex128, n)
		for i := range ones {
			ones[i] = 1
		}
		e = math.Max(e, runInverses(t, label+" impulse", p, ones, complexvec.Impulse(n, 0)))
		const k = 777
		line := complexvec.Impulse(n, k)
		line[k] = complex(float64(n), 0)
		tone := make([]complex128, n) // e^{+2πi·kj/n}
		for j := range tone {
			tone[j] = cmplx.Conj(omegaRef(n, k*j))
		}
		e = math.Max(e, runInverses(t, label+" tone", p, line, tone))
		p.Close()
		errs[label] = result{n, e}
	}

	for _, w := range []int{1, 2} {
		const rows, cols = 32, 64
		p, err := NewPlan2D(rows, cols, &Options{Workers: w})
		if err != nil {
			t.Fatal(err)
		}
		if p.IsParallel() != (w > 1) {
			t.Fatalf("Plan2D p=%d: parallel=%v", w, p.IsParallel())
		}
		x := complexvec.Random(rows*cols, 33)
		want := append([]complex128(nil), x...)
		for r := 0; r < rows; r++ {
			copy(want[r*cols:], refIDFT(want[r*cols:(r+1)*cols]))
		}
		col := make([]complex128, rows)
		for c := 0; c < cols; c++ {
			for r := range col {
				col[r] = want[r*cols+c]
			}
			for r, v := range refIDFT(col) {
				want[r*cols+c] = v
			}
		}
		label := fmt.Sprintf("Plan2D %dx%d p=%d", rows, cols, w)
		errs[label] = result{rows * cols, runInverses(t, label, p, x, want)}
		p.Close()
	}

	{
		const n, count = 256, 6
		b, err := NewBatchPlan(n, count, &Options{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		x := complexvec.Random(n*count, 34)
		var want []complex128
		for s := 0; s < count; s++ {
			want = append(want, refIDFT(x[s*n:(s+1)*n])...)
		}
		errs["BatchPlan 6x256 p=2"] = result{n, runInverses(t, "batch", b, x, want)}
		b.Close()
	}

	for _, n := range []int{2, 6, 1024, 4096} {
		for _, w := range []int{1, 2} {
			p, err := NewRealPlan(n, &Options{Workers: w})
			if err != nil {
				t.Fatal(err)
			}
			label := fmt.Sprintf("RealPlan n=%d p=%d", n, w)
			x := randomReal(n, uint64(n+w))
			want := refRealDFT(x)[:n/2+1]
			worst := 0.0
			for _, ctx := range []context.Context{nil, context.Background()} {
				spec := make([]complex128, n/2+1)
				back := make([]float64, n)
				if ctx == nil {
					err = p.Forward(spec, x)
				} else {
					err = p.ForwardCtx(ctx, spec, x)
				}
				if err != nil {
					t.Fatal(err)
				}
				worst = math.Max(worst, complexvec.RelError(spec, want))
				// Inverse of the exact spectrum against the signal.
				if ctx == nil {
					err = p.Inverse(back, want)
				} else {
					err = p.InverseCtx(ctx, back, want)
				}
				if err != nil {
					t.Fatal(err)
				}
				worst = math.Max(worst, complexvec.RelError(realAsComplex(back), realAsComplex(x)))
			}
			p.Close()
			errs[label] = result{n, worst}
		}
	}

	labels := make([]string, 0, len(errs))
	for label := range errs {
		labels = append(labels, label)
	}
	sort.Strings(labels)
	for _, label := range labels {
		r := errs[label]
		t.Logf("%-36s max rel error %.3g (bound %.3g)", label, r.e, matrixBound(r.n))
		if r.e > matrixBound(r.n) {
			t.Errorf("%s: max rel error %.3g > %.3g", label, r.e, matrixBound(r.n))
		}
	}
}

func realAsComplex(x []float64) []complex128 {
	out := make([]complex128, len(x))
	for i, v := range x {
		out[i] = complex(v, 0)
	}
	return out
}
