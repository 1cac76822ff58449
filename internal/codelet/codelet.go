// Package codelet provides the small unrolled DFT kernels ("codelets") that
// form the base cases of every plan in this library, mirroring the unrolled
// basic blocks Spiral's backend emits for small transform sizes.
//
// Every codelet computes
//
//	y[doff + k·ds] = Σ_j ω_n^{kj} · w[j] · x[soff + j·ss],   k = 0..n-1
//
// i.e. an n-point DFT with arbitrary input/output strides and an optional
// per-input twiddle vector w (nil means no scaling). Fusing the twiddle
// multiplication into the codelet is exactly the loop merging the paper's
// formula optimization performs on (DFT_m ⊗ I_n) · D_{m,n}: permutations and
// diagonals never appear as separate passes over the data.
//
// Every registered codelet is safe in place: called with dst == src at the
// same offset and stride, it reads all of its inputs before it stores its
// first output, so the result equals the out-of-place one bit for bit
// (exec.Seq.Transform relies on this when its root is a single codelet).
// The generated tier keeps the guarantee under its register schedule
// because every split-radix output depends on every input; the composed
// kernels gather into a stack buffer first. Partially overlapping index
// sets (the same buffer at other offsets or strides) are not supported;
// the executor ping-pongs between buffers instead.
//
// On amd64 the generated tier's straight-line kernels (n = 8, 16, 32, 64,
// which the composed 128 and 256 call) are SSE2 assembly, one complex128
// per XMM register (zsplitradix_amd64.s), lowered by internal/codegen from
// the same scheduled SSA that zsplitradix_generic.go prints as Go. Their
// two-lane forms (Apply2, ApplyW2) run the paper's DFT_n ⊗ I_ν at ν = 2:
// one AVX kernel advances two adjacent calls, two complex128 per YMM
// register, when the CPU has AVX and the OS saves the YMM state (checked
// once at init); without AVX they are two SSE2 calls. The Go kernels are
// the build for other architectures and for the purego build tag, where a
// pair is two calls; every build computes the same output bits. The
// assembly checks no index itself: its Go wrappers check the first and the
// last index of every run of dst, src and w, both lanes', so a bad call
// panics with a runtime bounds error before anything is written.
//
// The package also holds the Walsh-Hadamard transform's generated pass
// kernels (zwht*.go, zwht_amd64.s): WHTPass runs s·(I_b ⊗ WHT_r ⊗ I_w) for
// r = 2, 4, 8 in one call, as SSE2 or AVX assembly on amd64 and Go
// elsewhere, with the same bits as the radix-2 loop's stages.
package codelet

import (
	"fmt"
	"math"

	"spiralfft/internal/twiddle"
)

// The generated split-radix tier lives in zsplitradix*.go and
// zsplitradix_amd64.s, the WHT pass kernels in zwht*.go and zwht_amd64.s;
// regenerate after changing internal/codegen.
//go:generate go run spiralfft/cmd/codeletgen -o zsplitradix.go

// Func is the strided twiddled DFT kernel signature shared by all codelets.
type Func func(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128)

// FuncW is the fused-twiddle kernel signature: like Func, but the twiddle
// vector itself is strided (w[woff + j·ws] scales input j), so a composite
// caller can hand a sub-kernel its slice of a larger twiddle diagonal
// without materializing a contiguous copy. Kernels with a FuncW never pay a
// separate read/write pass for the Scale op.
type FuncW func(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int)

// Func2 runs a Func on two lanes at once, DFT_n ⊗ I_2: lane 0 computes
// Func(dst, doff, ds, src, soff, ss, w0) and lane 1
// Func(dst, doff+dl, ds, src, soff+sl, ss, w1). w0 and w1 are both nil or
// both length-n. Each lane may run in place (its dst run the same elements
// as its src run), but neither lane may write what the other reads or
// writes: the lanes then equal the two calls in either order, bit for bit.
type Func2 func(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w0, w1 []complex128)

// FuncW2 is FuncW on two lanes, as Func2 is Func: lane 1 runs at doff+dl,
// soff+sl and the scale vector w from woff+wl, at the same strides.
type FuncW2 func(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w []complex128, woff, ws, wl int)

// Kernel is a DFT codelet of a fixed size. Apply is mandatory; ApplyW, when
// non-nil, is the fused-twiddle variant generated codelets provide — the
// executor uses it to push strided twiddle diagonals all the way into the
// straight-line code. Apply2 and ApplyW2 are the two-lane forms of Apply
// and ApplyW; Paired fills in the ones a kernel lacks as two single-lane
// calls, and every kernel Register, ForSize, Best and Naive hand out has
// them.
type Kernel struct {
	N       int
	Name    string
	Apply   Func
	ApplyW  FuncW  // optional fused strided-twiddle entry point
	Apply2  Func2  // two lanes of Apply
	ApplyW2 FuncW2 // two lanes of ApplyW; nil when ApplyW is
}

// Paired returns k with Apply2, and ApplyW2 when k has ApplyW, filled in
// by two single-lane calls where k provides none.
func Paired(k Kernel) Kernel {
	if k.Apply2 == nil {
		apply := k.Apply
		k.Apply2 = func(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w0, w1 []complex128) {
			apply(dst, doff, ds, src, soff, ss, w0)
			apply(dst, doff+dl, ds, src, soff+sl, ss, w1)
		}
	}
	if k.ApplyW2 == nil && k.ApplyW != nil {
		applyW := k.ApplyW
		k.ApplyW2 = func(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w []complex128, woff, ws, wl int) {
			applyW(dst, doff, ds, src, soff, ss, w, woff, ws)
			applyW(dst, doff+dl, ds, src, soff+sl, ss, w, woff+wl, ws)
		}
	}
	return k
}

// Best returns the best available codelet for n: the registered one when it
// exists, otherwise the O(n²) naive kernel. Mixed-radix planning keeps naive
// kernels confined to small prime sizes.
func Best(n int) Kernel {
	if k, ok := ForSize(n); ok {
		return k
	}
	return Naive(n)
}

// The hand-scheduled scalar kernels serve the sizes the generated tier
// (zsplitradix.go) does not cover.
func init() {
	Register(Kernel{N: 1, Name: "dft1", Apply: dft1})
	Register(Kernel{N: 2, Name: "dft2", Apply: dft2})
	Register(Kernel{N: 3, Name: "dft3", Apply: dft3})
	Register(Kernel{N: 4, Name: "dft4", Apply: dft4})
	Register(Kernel{N: 5, Name: "dft5", Apply: dft5})
	Register(Kernel{N: 6, Name: "dft6", Apply: dft6})
	Register(Kernel{N: 10, Name: "dft10", Apply: dft10})
	Register(Kernel{N: 12, Name: "dft12", Apply: dft12})
}

// Naive returns a reference O(n²) kernel with a precomputed root table.
// It serves as the base case for prime sizes and as the oracle in tests.
func Naive(n int) Kernel {
	if n <= 0 {
		panic(fmt.Sprintf("codelet: Naive size %d", n))
	}
	roots := twiddle.Roots(n)
	apply := func(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
		var t [64]complex128
		var in []complex128
		if n <= len(t) {
			in = t[:n]
		} else {
			in = make([]complex128, n)
		}
		for j := 0; j < n; j++ {
			v := src[soff+j*ss]
			if w != nil {
				v *= w[j]
			}
			in[j] = v
		}
		for k := 0; k < n; k++ {
			acc := complex128(0)
			idx := 0
			for j := 0; j < n; j++ {
				acc += roots[idx] * in[j]
				idx += k
				if idx >= n {
					idx -= n
				}
			}
			dst[doff+k*ds] = acc
		}
	}
	return Paired(Kernel{N: n, Name: fmt.Sprintf("naive%d", n), Apply: apply})
}

func dft1(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
	v := src[soff]
	if w != nil {
		v *= w[0]
	}
	dst[doff] = v
}

func dft2(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
	x0 := src[soff]
	x1 := src[soff+ss]
	if w != nil {
		x0 *= w[0]
		x1 *= w[1]
	}
	dst[doff] = x0 + x1
	dst[doff+ds] = x0 - x1
}

// sqrt(3)/2, used by the 3-point kernel.
var half3 = complex(0, math.Sqrt(3)/2)

func dft3(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
	x0 := src[soff]
	x1 := src[soff+ss]
	x2 := src[soff+2*ss]
	if w != nil {
		x0 *= w[0]
		x1 *= w[1]
		x2 *= w[2]
	}
	u := x1 + x2
	v := x1 - x2
	m := x0 - u/2
	s := half3 * v // i·(√3/2)·v
	dst[doff] = x0 + u
	dst[doff+ds] = m - s
	dst[doff+2*ds] = m + s
}

func dft4(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
	x0 := src[soff]
	x1 := src[soff+ss]
	x2 := src[soff+2*ss]
	x3 := src[soff+3*ss]
	if w != nil {
		x0 *= w[0]
		x1 *= w[1]
		x2 *= w[2]
		x3 *= w[3]
	}
	t0 := x0 + x2
	t1 := x0 - x2
	t2 := x1 + x3
	t3 := x1 - x3
	// Multiply t3 by -i: (a+bi)(-i) = b - ai.
	t3 = complex(imag(t3), -real(t3))
	dst[doff] = t0 + t2
	dst[doff+ds] = t1 + t3
	dst[doff+2*ds] = t0 - t2
	dst[doff+3*ds] = t1 - t3
}

// 5-point constants: a = cos(2π/5), b = cos(4π/5), c = sin(2π/5), d = sin(4π/5).
var (
	c5a = math.Cos(2 * math.Pi / 5)
	c5b = math.Cos(4 * math.Pi / 5)
	c5c = math.Sin(2 * math.Pi / 5)
	c5d = math.Sin(4 * math.Pi / 5)
)

func dft5(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
	x0 := src[soff]
	x1 := src[soff+ss]
	x2 := src[soff+2*ss]
	x3 := src[soff+3*ss]
	x4 := src[soff+4*ss]
	if w != nil {
		x0 *= w[0]
		x1 *= w[1]
		x2 *= w[2]
		x3 *= w[3]
		x4 *= w[4]
	}
	u1 := x1 + x4
	u2 := x2 + x3
	v1 := x1 - x4
	v2 := x2 - x3
	dst[doff] = x0 + u1 + u2
	ra := x0 + complex(c5a, 0)*u1 + complex(c5b, 0)*u2
	rb := x0 + complex(c5b, 0)*u1 + complex(c5a, 0)*u2
	sa := complex(0, 1) * (complex(c5c, 0)*v1 + complex(c5d, 0)*v2)
	sb := complex(0, 1) * (complex(c5d, 0)*v1 - complex(c5c, 0)*v2)
	dst[doff+ds] = ra - sa
	dst[doff+2*ds] = rb - sb
	dst[doff+3*ds] = rb + sb
	dst[doff+4*ds] = ra + sa
}

// Twiddle tables for the composed 6-, 10- and 12-point kernels.
var (
	tw6  = twiddle.Columns(2, 3) // ω_6^{i·j} per column j of D_{2,3}, flat [j*2+i]
	tw10 = twiddle.Columns(2, 5) // ω_10^{i·j} per column j of D_{2,5}, flat [j*2+i]
	tw12 = twiddle.Columns(4, 3) // ω_12^{i·j} per column j of D_{4,3}, flat [j*4+i]
)

// dft6 computes a 6-point DFT as DFT_6 = (DFT_2 ⊗ I_3) D_{2,3} (I_2 ⊗ DFT_3) L^6_2.
func dft6(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
	var t [6]complex128
	buf := t[:]
	if w == nil {
		for i := 0; i < 2; i++ {
			dft3(buf, 3*i, 1, src, soff+i*ss, 2*ss, nil)
		}
	} else {
		var xw [6]complex128
		for j := 0; j < 6; j++ {
			xw[j] = src[soff+j*ss] * w[j]
		}
		for i := 0; i < 2; i++ {
			dft3(buf, 3*i, 1, xw[:], i, 2, nil)
		}
	}
	for j := 0; j < 3; j++ {
		dft2(dst, doff+j*ds, 3*ds, buf, j, 3, tw6[j*2:j*2+2])
	}
}

// dft10 computes a 10-point DFT as DFT_10 = (DFT_2 ⊗ I_5) D_{2,5} (I_2 ⊗ DFT_5) L^10_2.
func dft10(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
	var t [10]complex128
	buf := t[:]
	if w == nil {
		for i := 0; i < 2; i++ {
			dft5(buf, 5*i, 1, src, soff+i*ss, 2*ss, nil)
		}
	} else {
		var xw [10]complex128
		for j := 0; j < 10; j++ {
			xw[j] = src[soff+j*ss] * w[j]
		}
		for i := 0; i < 2; i++ {
			dft5(buf, 5*i, 1, xw[:], i, 2, nil)
		}
	}
	for j := 0; j < 5; j++ {
		dft2(dst, doff+j*ds, 5*ds, buf, j, 5, tw10[j*2:j*2+2])
	}
}

// dft12 computes a 12-point DFT as DFT_12 = (DFT_4 ⊗ I_3) D_{4,3} (I_4 ⊗ DFT_3) L^12_4.
func dft12(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
	var t [12]complex128
	buf := t[:]
	if w == nil {
		for i := 0; i < 4; i++ {
			dft3(buf, 3*i, 1, src, soff+i*ss, 4*ss, nil)
		}
	} else {
		var xw [12]complex128
		for j := 0; j < 12; j++ {
			xw[j] = src[soff+j*ss] * w[j]
		}
		for i := 0; i < 4; i++ {
			dft3(buf, 3*i, 1, xw[:], i, 4, nil)
		}
	}
	for j := 0; j < 3; j++ {
		dft4(dst, doff+j*ds, 3*ds, buf, j, 3, tw12[j*4:j*4+4])
	}
}
