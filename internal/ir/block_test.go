package ir

import (
	"math/rand"
	"testing"
	"time"

	"spiralfft/internal/complexvec"
	"spiralfft/internal/rewrite"
	"spiralfft/internal/smp"
	"spiralfft/internal/spl"
)

func TestCompileBlockMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cases := []spl.Formula{
		spl.NewDFT(64),
		spl.NewWHT(6),
		spl.NewIdentity(32),
		spl.NewDiag(randVec(16, rng), "d"),
		spl.NewTensor(spl.NewIdentity(4), spl.NewDFT(16)),
		spl.NewTensor(spl.NewDFT(8), spl.NewIdentity(8)),
		spl.NewCompose(
			spl.NewTensor(spl.NewDFT(4), spl.NewIdentity(4)),
			spl.NewTwiddle(4, 4),
			spl.NewTensor(spl.NewIdentity(4), spl.NewDFT(4)),
			spl.NewStride(16, 4),
		),
		spl.NewStride(32, 4), // reference fallback path
	}
	for _, f := range cases {
		fn, err := CompileBlock(f)
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		x := randVec(f.Size(), rng)
		got := make([]complex128, f.Size())
		fn(got, x)
		if d := maxDiff(applyRef(f, x), got); d > 1e-10 {
			t.Errorf("%s: compiled block wrong by %g", f, d)
		}
		// Re-running must give identical results (internal buffers reset).
		again := make([]complex128, f.Size())
		fn(again, x)
		if d := maxDiff(got, again); d != 0 {
			t.Errorf("%s: compiled block not repeatable", f)
		}
	}
}

// TestExpandedFormulaProgramRunsFast: the fully expanded multicore formula
// (codelet-size leaves everywhere) lowered by FromFormula and folded must
// execute through the typed fast paths and still compute the DFT. The speed
// assertion is loose — the point is that execution never goes through the
// O(n²) reference DFT, which at this size would take orders of magnitude
// longer.
func TestExpandedFormulaProgramRunsFast(t *testing.T) {
	const n, p, mu = 4096, 2, 4
	f, _, err := rewrite.DeriveExpandedMulticoreCT(n, 64, p, mu)
	if err != nil {
		t.Fatal(err)
	}
	raw, err := FromFormula(f, p, mu)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Fold(raw)
	if err != nil {
		t.Fatal(err)
	}
	backend := smp.NewPool(p)
	defer backend.Close()
	e, err := NewExecutor(prog, backend)
	if err != nil {
		t.Fatal(err)
	}
	x := randVec(n, rand.New(rand.NewSource(5)))
	got := make([]complex128, n)
	start := time.Now()
	e.Transform(got, x)
	elapsed := time.Since(start)
	if e := complexvec.RelError(got, applyRef(spl.NewDFT(n), x)); e > 1e-9 {
		t.Errorf("expanded program wrong by %g", e)
	}
	if elapsed > 200*time.Millisecond {
		t.Errorf("expanded program took %v — fast paths not engaged?", elapsed)
	}
}

func TestFormulaOpsModel(t *testing.T) {
	cases := []struct {
		f        spl.Formula
		positive bool
	}{
		{spl.NewDFT(16), true},
		{spl.NewDFT(1), false},
		{spl.NewWHT(4), true},
		{spl.NewIdentity(8), false},
		{spl.NewStride(8, 2), true},
		{spl.NewTwiddle(4, 4), true},
		{spl.NewDiag(make([]complex128, 8), "d"), true},
		{spl.NewTensor(spl.NewDFT(4), spl.NewIdentity(4)), true},
		{spl.NewTensorPar(2, spl.NewDFT(8)), true},
		{spl.NewBarTensor(spl.NewStride(4, 2), 2), true},
		{spl.NewCompose(spl.NewDFT(4), spl.NewTwiddle(2, 2)), true},
		{spl.NewDirectSum(spl.NewDFT(4), spl.NewDFT(4)), true},
	}
	for _, c := range cases {
		if got := FormulaOps(c.f); (got > 0) != c.positive {
			t.Errorf("FormulaOps(%s) = %v, want positive=%v", c.f, got, c.positive)
		}
	}
	// Tensor cost must scale with both factors.
	a := FormulaOps(spl.NewTensor(spl.NewIdentity(2), spl.NewDFT(8)))
	b := FormulaOps(spl.NewTensor(spl.NewIdentity(4), spl.NewDFT(8)))
	if b <= a {
		t.Errorf("tensor work did not scale: %v vs %v", a, b)
	}
}
