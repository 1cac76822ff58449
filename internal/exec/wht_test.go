package exec

import (
	"fmt"
	"testing"
	"testing/quick"

	"spiralfft/internal/complexvec"
)

// refWHT computes the Walsh-Hadamard transform from the Hadamard matrix
// definition: H[k][j] = (-1)^{popcount(k & j)}.
func refWHT(x []complex128) []complex128 {
	n := len(x)
	y := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			if popcountInt(k&j)%2 == 0 {
				y[k] += x[j]
			} else {
				y[k] -= x[j]
			}
		}
	}
	return y
}

func popcountInt(v int) int {
	c := 0
	for ; v != 0; v &= v - 1 {
		c++
	}
	return c
}

func TestWHTSequentialMatchesDefinition(t *testing.T) {
	for _, k := range []int{1, 3, 6, 10} {
		n := 1 << uint(k)
		x := complexvec.Random(n, uint64(k))
		got := complexvec.Clone(x)
		WHTInPlace(got)
		if e := complexvec.RelError(got, refWHT(x)); e > 1e-12 {
			t.Errorf("k=%d: rel error %g", k, e)
		}
	}
}

// Property: the WHT is self-inverse up to n: WHT(WHT(x)) = n·x.
func TestQuickWHTInvolution(t *testing.T) {
	n := 256
	f := func(seed uint64) bool {
		x := complexvec.Random(n, seed)
		z := complexvec.Clone(x)
		WHTInPlace(z)
		WHTInPlace(z)
		for i := range z {
			d := z[i] - complex(float64(n), 0)*x[i]
			if real(d)*real(d)+imag(d)*imag(d) > 1e-16*float64(n*n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// whtRadix2 is the plain radix-2 butterfly loop, stage by stage.
func whtRadix2(buf []complex128) {
	n := len(buf)
	for step := 1; step < n; step *= 2 {
		for i := 0; i < n; i += 2 * step {
			for j := i; j < i+step; j++ {
				a, b := buf[j], buf[j+step]
				buf[j], buf[j+step] = a+b, a-b
			}
		}
	}
}

// The fused radix-4 passes perform the radix-2 additions in the same order,
// so WHTInPlace equals the radix-2 loop bit for bit, for even and odd
// log2 n; WHTInPlaceScaled by a power of two equals it times the scale.
func TestWHTInPlaceBitIdenticalToRadix2(t *testing.T) {
	for k := 0; k <= 12; k++ {
		n := 1 << uint(k)
		x := complexvec.Random(n, uint64(100+k))
		want := complexvec.Clone(x)
		whtRadix2(want)
		got := complexvec.Clone(x)
		WHTInPlace(got)
		scaled := complexvec.Clone(x)
		WHTInPlaceScaled(scaled, 1/float64(n))
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("n=%d: element %d = %v, radix-2 gives %v", n, i, got[i], want[i])
			}
			if w := want[i] * complex(1/float64(n), 0); scaled[i] != w {
				t.Fatalf("n=%d scaled: element %d = %v, want %v", n, i, scaled[i], w)
			}
		}
	}
}

// WHT_n = (WHT_a ⊗ I_v)(I_a ⊗ WHT_v) for n = a·v: WHTRowsScaled on the
// rows after contiguous WHT_v blocks gives WHTInPlaceScaled's output bit
// for bit, whether the rows run as one block (stride == v) or as column
// ranges of wider rows (stride > v), each range transformed on its own.
func TestWHTRowsScaledSplitsWHTInPlace(t *testing.T) {
	for k := 1; k <= 12; k++ {
		n := 1 << uint(k)
		for a := 2; a <= n; a *= 2 {
			v := n / a
			x := complexvec.Random(n, uint64(10*k+a))
			for _, s := range []float64{1, 1 / float64(n)} {
				want := complexvec.Clone(x)
				WHTInPlaceScaled(want, s)
				packed := complexvec.Clone(x)
				for i := 0; i < a; i++ {
					WHTInPlace(packed[i*v : (i+1)*v])
				}
				cols := complexvec.Clone(packed)
				WHTRowsScaled(packed, a, v, v, s)
				// Two column ranges [0,h) and [h,v) of the same rows.
				if h := v / 2; h > 0 {
					WHTRowsScaled(cols, a, v, h, s)
					WHTRowsScaled(cols[h:], a, v, v-h, s)
				} else {
					WHTRowsScaled(cols, a, v, v, s)
				}
				for i := range want {
					if packed[i] != want[i] || cols[i] != want[i] {
						t.Fatalf("n=%d a=%d s=%g: element %d = %v (packed), %v (columns), want %v",
							n, a, s, i, packed[i], cols[i], want[i])
					}
				}
			}
		}
	}
}

func BenchmarkWHT(b *testing.B) {
	for _, k := range []int{10, 14} {
		buf := complexvec.Random(1<<uint(k), 1)
		b.Run(fmt.Sprintf("seq/logN=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				WHTInPlace(buf)
			}
		})
		b.Run(fmt.Sprintf("radix2/logN=%d", k), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				whtRadix2(buf)
			}
		})
	}
}
