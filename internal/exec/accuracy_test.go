package exec

import (
	"math"
	"testing"

	"spiralfft/internal/complexvec"
)

// TestAccuracyGrowsSlowly documents the numerical behaviour of the fast
// plans: the relative error against the O(n²) definition must stay within a
// small multiple of machine epsilon scaled by log2(n) — the standard FFT
// error bound (O(ε·log n) for Cooley-Tukey versus O(ε·n) for the naive
// summation, whose own rounding dominates at large sizes, which is why the
// comparison stops at moderate n).
func TestAccuracyGrowsSlowly(t *testing.T) {
	const eps = 2.22e-16
	for _, n := range []int{16, 64, 256, 1024, 4096} {
		s := MustNewSeq(RadixTree(n))
		x := complexvec.Random(n, uint64(n)*13)
		got := make([]complex128, n)
		s.Transform(got, x, nil)
		want := naiveDFT(x)
		e := complexvec.RelError(got, want)
		bound := 50 * eps * math.Log2(float64(n)) * math.Sqrt(float64(n))
		if e > bound {
			t.Errorf("n=%d: rel error %.3g exceeds bound %.3g", n, e, bound)
		}
	}
}
