package codelet

import (
	"fmt"
	"math/cmplx"
	"testing"
	"testing/quick"

	"spiralfft/internal/complexvec"
	"spiralfft/internal/twiddle"
)

const tol = 1e-12

// refDFT computes the n-point DFT of x directly from the definition.
func refDFT(x []complex128) []complex128 {
	n := len(x)
	y := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			y[k] += twiddle.Omega(n, k*j) * x[j]
		}
	}
	return y
}

// runKernel applies k to a contiguous copy of x and returns the result.
func runKernel(k Kernel, x, w []complex128) []complex128 {
	y := make([]complex128, k.N)
	k.Apply(y, 0, 1, x, 0, 1, w)
	return y
}

func TestKernelsMatchDefinition(t *testing.T) {
	for _, n := range Sizes() {
		k, ok := ForSize(n)
		if !ok {
			t.Fatalf("ForSize(%d) missing", n)
		}
		x := complexvec.Random(n, uint64(n))
		got := runKernel(k, x, nil)
		want := refDFT(x)
		if e := complexvec.RelError(got, want); e > tol {
			t.Errorf("%s: rel error %g", k.Name, e)
		}
	}
}

func TestKernelsImpulseResponses(t *testing.T) {
	// DFT of e_j is the column [ω_n^{kj}]_k; checking all impulses checks
	// every matrix entry of every codelet.
	for _, n := range Sizes() {
		k, _ := ForSize(n)
		for j := 0; j < n; j++ {
			got := runKernel(k, complexvec.Impulse(n, j), nil)
			for kk := 0; kk < n; kk++ {
				want := twiddle.Omega(n, kk*j)
				if cmplx.Abs(got[kk]-want) > tol {
					t.Fatalf("%s: entry (%d,%d) = %v, want %v", k.Name, kk, j, got[kk], want)
				}
			}
		}
	}
}

func TestKernelsStrided(t *testing.T) {
	for _, n := range Sizes() {
		k, _ := ForSize(n)
		for _, ss := range []int{1, 2, 3, 7} {
			for _, ds := range []int{1, 2, 5} {
				soff, doff := 3, 2
				src := complexvec.Random(soff+n*ss+1, uint64(n*ss*ds))
				dst := make([]complex128, doff+n*ds+1)
				k.Apply(dst, doff, ds, src, soff, ss, nil)
				x := make([]complex128, n)
				for j := 0; j < n; j++ {
					x[j] = src[soff+j*ss]
				}
				want := refDFT(x)
				for kk := 0; kk < n; kk++ {
					if cmplx.Abs(dst[doff+kk*ds]-want[kk]) > tol {
						t.Fatalf("%s ss=%d ds=%d: output %d mismatch", k.Name, ss, ds, kk)
					}
				}
			}
		}
	}
}

func TestKernelsTwiddled(t *testing.T) {
	for _, n := range Sizes() {
		k, _ := ForSize(n)
		x := complexvec.Random(n, 7)
		w := complexvec.Random(n, 11)
		got := runKernel(k, x, w)
		xw := make([]complex128, n)
		complexvec.Hadamard(xw, x, w)
		want := refDFT(xw)
		if e := complexvec.RelError(got, want); e > tol {
			t.Errorf("%s twiddled: rel error %g", k.Name, e)
		}
	}
}

func TestKernelsTwiddledStrided(t *testing.T) {
	// Exercise the twiddled path of the 16- and 32-point kernels with
	// non-unit strides to catch indexing bugs there.
	for _, n := range []int{16, 32} {
		k, _ := ForSize(n)
		ss, ds, soff, doff := 3, 2, 1, 4
		src := complexvec.Random(soff+n*ss, uint64(n))
		w := complexvec.Random(n, 13)
		dst := make([]complex128, doff+n*ds)
		k.Apply(dst, doff, ds, src, soff, ss, w)
		x := make([]complex128, n)
		for j := 0; j < n; j++ {
			x[j] = src[soff+j*ss] * w[j]
		}
		want := refDFT(x)
		for kk := 0; kk < n; kk++ {
			if cmplx.Abs(dst[doff+kk*ds]-want[kk]) > tol {
				t.Fatalf("%s: twiddled strided output %d mismatch", k.Name, kk)
			}
		}
	}
}

func TestNaiveMatchesDefinitionIncludingLargeSizes(t *testing.T) {
	for _, n := range []int{1, 2, 6, 7, 11, 13, 64, 100} {
		k := Naive(n)
		if k.N != n {
			t.Fatalf("Naive(%d).N = %d", n, k.N)
		}
		x := complexvec.Random(n, uint64(n)+1)
		got := runKernel(k, x, nil)
		want := refDFT(x)
		if e := complexvec.RelError(got, want); e > 1e-10 {
			t.Errorf("naive%d: rel error %g", n, e)
		}
		// Twiddled path too.
		w := complexvec.Random(n, 5)
		got = runKernel(k, x, w)
		xw := make([]complex128, n)
		complexvec.Hadamard(xw, x, w)
		want = refDFT(xw)
		if e := complexvec.RelError(got, want); e > 1e-10 {
			t.Errorf("naive%d twiddled: rel error %g", n, e)
		}
	}
}

func TestNaivePanicsOnBadSize(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Naive(0)
}

func TestBestPrefersUnrolled(t *testing.T) {
	// Generated split-radix kernels outrank the hand tier at shared sizes.
	if k := Best(8); k.Name != "sr8" {
		t.Errorf("Best(8) = %s", k.Name)
	}
	if k := Best(10); k.Name != "dft10" {
		t.Errorf("Best(10) = %s", k.Name)
	}
	if k := Best(7); k.Name != "naive7" {
		t.Errorf("Best(7) = %s", k.Name)
	}
	if !HasUnrolled(16) || !HasUnrolled(6) || !HasUnrolled(256) || HasUnrolled(9) {
		t.Error("HasUnrolled wrong")
	}
}

func TestRegistryConsistency(t *testing.T) {
	if got := MaxUnrolled(); got != 256 {
		t.Errorf("MaxUnrolled() = %d, want 256", got)
	}
	sizes := Sizes()
	for i, n := range sizes {
		if i > 0 && sizes[i-1] >= n {
			t.Fatalf("Sizes() not ascending: %v", sizes)
		}
		k, ok := ForSize(n)
		if !ok || k.N != n {
			t.Fatalf("ForSize(%d) = %v, %v", n, k, ok)
		}
	}
	all := All()
	if len(all) != len(sizes) {
		t.Fatalf("All() has %d kernels, Sizes() has %d", len(all), len(sizes))
	}
	// Each size has one codelet: a second registration for a taken size
	// panics and leaves the registered kernel in place.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("second Register for size 8 did not panic")
			}
		}()
		Register(Kernel{N: 8, Name: "dup8", Apply: dft4})
	}()
	if k, _ := ForSize(8); k.Name != "sr8" {
		t.Errorf("duplicate Register displaced sr8 with %s", k.Name)
	}
}

// TestGeneratedKernelsMatchNaive pins every generated kernel (both flavors)
// against the O(n²) oracle with strides, offsets, and a non-trivial strided
// twiddle vector — the build-time self-validation the codelet tier promises.
func TestGeneratedKernelsMatchNaive(t *testing.T) {
	for _, k := range All() {
		if k.ApplyW == nil {
			continue
		}
		n := k.N
		nai := Naive(n)
		const doff, ds, soff, ss, woff, ws = 3, 2, 1, 3, 2, 2
		src := complexvec.Random(soff+n*ss, uint64(n))
		w := complexvec.Random(woff+n*ws, uint64(n)+1)
		wc := make([]complex128, n)
		for j := 0; j < n; j++ {
			wc[j] = w[woff+j*ws]
		}
		got := make([]complex128, doff+n*ds)
		want := make([]complex128, doff+n*ds)
		k.ApplyW(got, doff, ds, src, soff, ss, w, woff, ws)
		nai.Apply(want, doff, ds, src, soff, ss, wc)
		if e := complexvec.RelError(got, want); e > 1e-11 {
			t.Errorf("%s.ApplyW: rel error %g", k.Name, e)
		}
	}
}

// Property: every codelet is linear: K(αx + y) == αK(x) + K(y).
func TestQuickKernelLinearity(t *testing.T) {
	for _, n := range Sizes() {
		k, _ := ForSize(n)
		n := n
		f := func(seedX, seedY uint64, are, aim float64) bool {
			if are > 1e3 || are < -1e3 || aim > 1e3 || aim < -1e3 {
				are, aim = 1, 0
			}
			a := complex(are, aim)
			x := complexvec.Random(n, seedX)
			y := complexvec.Random(n, seedY)
			z := make([]complex128, n)
			for i := range z {
				z[i] = a*x[i] + y[i]
			}
			kz := runKernel(k, z, nil)
			kx := runKernel(k, x, nil)
			ky := runKernel(k, y, nil)
			for i := range kz {
				if cmplx.Abs(kz[i]-(a*kx[i]+ky[i])) > 1e-9*(1+cmplx.Abs(kz[i])) {
					return false
				}
			}
			return true
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("size %d: %v", n, err)
		}
	}
}

// Property: Parseval — ‖DFT(x)‖² == n·‖x‖².
func TestQuickKernelParseval(t *testing.T) {
	for _, n := range Sizes() {
		k, _ := ForSize(n)
		n := n
		f := func(seed uint64) bool {
			x := complexvec.Random(n, seed)
			y := runKernel(k, x, nil)
			lhs := complexvec.L2Norm(y)
			rhs := complexvec.L2Norm(x)
			diff := lhs*lhs - float64(n)*rhs*rhs
			if diff < 0 {
				diff = -diff
			}
			return diff <= 1e-9*(1+lhs*lhs)
		}
		if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
			t.Errorf("size %d: %v", n, err)
		}
	}
}

var benchSink complex128

// BenchmarkCodelets times every registered kernel in the shapes the
// executor calls: unit strides, and the stage-1 gather of a two-stage
// n = m·k transform with m = 32, which reads its input at stride m and, in
// the fused flavor, its scale vector at stride m too. Apply runs with
// w == nil; ApplyW with a strided scale vector, as the fused stages do.
// Apply2 and ApplyW2 run the pair calls of both stages: one pair does the
// work of two single calls.
func BenchmarkCodelets(b *testing.B) {
	const m = 32
	for _, n := range Sizes() {
		k, _ := ForSize(n)
		src := complexvec.Random(n*m, 1)
		w := complexvec.Random(n*m, 2)
		dst := make([]complex128, n)
		for _, ss := range []int{1, m} {
			b.Run(fmt.Sprintf("n=%d/Apply/ss=%d", n, ss), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.Apply(dst, 0, 1, src, 0, ss, nil)
				}
				benchSink = dst[0]
			})
			if k.ApplyW == nil {
				continue
			}
			b.Run(fmt.Sprintf("n=%d/ApplyW/ss=%d", n, ss), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					k.ApplyW(dst, 0, 1, src, 0, ss, w, 0, ss)
				}
				benchSink = dst[0]
			})
		}
		// The pair calls of incache-p2's two stages (DFT_1024 as 32·32):
		// stage 1 gathers at stride m into contiguous blocks, lane 1 one
		// element on in src and n on in dst; stage 2 transforms columns one
		// apart at stride m with twiddle columns m apart.
		wide := make([]complex128, n*m)
		b.Run(fmt.Sprintf("n=%d/Apply2/stage1", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.Apply2(wide, 0, 1, n, src, 0, m, 1, nil, nil)
			}
			benchSink = wide[0]
		})
		if k.ApplyW2 == nil {
			continue
		}
		b.Run(fmt.Sprintf("n=%d/ApplyW2/stage2", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				k.ApplyW2(wide, 0, m, 1, src, 0, m, 1, w, 0, 1, m)
			}
			benchSink = wide[0]
		})
	}
}
