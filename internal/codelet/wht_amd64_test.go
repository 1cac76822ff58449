//go:build !purego

package codelet

import (
	"fmt"
	"testing"

	"spiralfft/internal/complexvec"
)

// whtAsm is one pass kernel's two assembly forms.
type whtAsm struct {
	name      string
	r         int
	sse2, avx func(dst, src *complex128, b, bs, leg, w int, s float64)
}

// whtAsmKernels lists every radix and flavor, the unscaled kernels behind
// the scaled signature (s unused).
func whtAsmKernels() []whtAsm {
	plain := func(f func(dst, src *complex128, b, bs, leg, w int)) func(dst, src *complex128, b, bs, leg, w int, s float64) {
		return func(dst, src *complex128, b, bs, leg, w int, _ float64) { f(dst, src, b, bs, leg, w) }
	}
	return []whtAsm{
		{"wht2", 2, plain(wht2SSE2), plain(wht2AVX)},
		{"wht2s", 2, wht2sSSE2, wht2sAVX},
		{"wht4", 4, plain(wht4SSE2), plain(wht4AVX)},
		{"wht4s", 4, wht4sSSE2, wht4sAVX},
		{"wht8", 8, plain(wht8SSE2), plain(wht8AVX)},
		{"wht8s", 8, wht8sSSE2, wht8sAVX},
	}
}

// The AVX pass kernels against the SSE2 ones, both called directly: on a
// host with AVX, WHTPass never takes the SSE2 kernel, so this is the test
// of its bits, and it covers the AVX kernel's three bodies: blocks in
// pairs at w = 1 (an odd last block in the tail), adjacent points, and odd
// w's VEX tail.
func TestWHTAVXMatchesSSE2(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX: WHTPass runs the SSE2 kernels, which TestWHTPassMatchesDefinition covers")
	}
	for _, k := range whtAsmKernels() {
		for _, g := range whtShapes(k.r) {
			size := g.size(k.r) + 2
			src := complexvec.Random(size, uint64(k.r*size))
			for _, inPlace := range []bool{false, true} {
				want, got := make([]complex128, size), make([]complex128, size)
				wantIn, gotIn := src, src
				if inPlace {
					copy(want, src)
					copy(got, src)
					wantIn, gotIn = want, got
				}
				k.sse2(&want[g.off], &wantIn[g.off], g.b, g.bs, g.leg, g.w, 0.25)
				k.avx(&got[g.off], &gotIn[g.off], g.b, g.bs, g.leg, g.w, 0.25)
				if i, ok := bitsEqual(got, want); !ok {
					t.Fatalf("%s %+v in place=%v: element %d = %v, SSE2 gives %v", k.name, g, inPlace, i, got[i], want[i])
				}
			}
		}
	}
}

// BenchmarkWHTKernels times one radix-8 pass over 4096 points in place,
// SSE2 against AVX, at leg widths 1, 8 and 64: the first three passes of
// the WHT_4096 ladder.
func BenchmarkWHTKernels(b *testing.B) {
	buf := complexvec.Random(4096, 1)
	for _, k := range whtAsmKernels() {
		if k.r != 8 || !hasAVX {
			continue
		}
		for _, w := range []int{1, 8, 64} {
			for _, isa := range []string{"SSE2", "AVX"} {
				f := k.sse2
				if isa == "AVX" {
					f = k.avx
				}
				b.Run(fmt.Sprintf("%s/w=%d/%s", k.name, w, isa), func(b *testing.B) {
					for i := 0; i < b.N; i++ {
						f(&buf[0], &buf[0], 4096/(8*w), 8*w, w, w, 0.5)
					}
				})
			}
		}
	}
}
