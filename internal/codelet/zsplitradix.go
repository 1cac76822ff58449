// Code generated by "go run spiralfft/cmd/codeletgen"; DO NOT EDIT.

// Generated split-radix codelet tier (see internal/codegen/splitradix.go):
// straight-line conjugate-pair split-radix kernels for n ∈ {8, 16, 32, 64}
// and two-stage radix-16 kernels for n ∈ {128, 256}, each with a no-twiddle
// flavor (srNn) and a fused strided-twiddle flavor (srNw). They are the only
// kernels registered for these sizes, so they serve them everywhere codelets
// are used. Each straight-line size also has two-lane entry points
// (Apply2, ApplyW2: DFT_n ⊗ I_2 over two adjacent calls), and the composed
// kernels run their stages in such pairs. The straight-line kernels are
// SSE2 assembly on amd64 and their two-lane forms AVX assembly
// (zsplitradix_amd64.s), and Go elsewhere and under the purego build tag
// (zsplitradix_generic.go); every build computes the same bits.

package codelet

import "spiralfft/internal/twiddle"

// Stage-2 twiddle diagonals D_{m,k} of the composed kernels, column j at
// [j·m, (j+1)·m), shared with the executor's cache layout.
var (
	srtw16x8  = twiddle.Columns(16, 8)
	srtw16x16 = twiddle.Columns(16, 16)
)

func init() {
	Register(Kernel{N: 8, Name: "sr8", Apply: sr8, ApplyW: sr8w, Apply2: sr8Pair, ApplyW2: sr8wPair})
	Register(Kernel{N: 16, Name: "sr16", Apply: sr16, ApplyW: sr16w, Apply2: sr16Pair, ApplyW2: sr16wPair})
	Register(Kernel{N: 32, Name: "sr32", Apply: sr32, ApplyW: sr32w, Apply2: sr32Pair, ApplyW2: sr32wPair})
	Register(Kernel{N: 64, Name: "sr64", Apply: sr64, ApplyW: sr64w, Apply2: sr64Pair, ApplyW2: sr64wPair})
	Register(Kernel{N: 128, Name: "sr128", Apply: sr128, ApplyW: sr128w})
	Register(Kernel{N: 256, Name: "sr256", Apply: sr256, ApplyW: sr256w})
}

func sr8(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
	if w == nil {
		sr8n(dst, doff, ds, src, soff, ss)
	} else {
		sr8w(dst, doff, ds, src, soff, ss, w, 0, 1)
	}
}

func sr8Pair(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w0, w1 []complex128) {
	if w0 == nil {
		sr8n2(dst, doff, ds, dl, src, soff, ss, sl)
	} else {
		sr8w2(dst, doff, ds, dl, src, soff, ss, sl, w0, 0, w1, 0, 1)
	}
}

func sr8wPair(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w []complex128, woff, ws, wl int) {
	sr8w2(dst, doff, ds, dl, src, soff, ss, sl, w, woff, w, woff+wl, ws)
}

func sr16(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
	if w == nil {
		sr16n(dst, doff, ds, src, soff, ss)
	} else {
		sr16w(dst, doff, ds, src, soff, ss, w, 0, 1)
	}
}

func sr16Pair(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w0, w1 []complex128) {
	if w0 == nil {
		sr16n2(dst, doff, ds, dl, src, soff, ss, sl)
	} else {
		sr16w2(dst, doff, ds, dl, src, soff, ss, sl, w0, 0, w1, 0, 1)
	}
}

func sr16wPair(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w []complex128, woff, ws, wl int) {
	sr16w2(dst, doff, ds, dl, src, soff, ss, sl, w, woff, w, woff+wl, ws)
}

func sr32(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
	if w == nil {
		sr32n(dst, doff, ds, src, soff, ss)
	} else {
		sr32w(dst, doff, ds, src, soff, ss, w, 0, 1)
	}
}

func sr32Pair(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w0, w1 []complex128) {
	if w0 == nil {
		sr32n2(dst, doff, ds, dl, src, soff, ss, sl)
	} else {
		sr32w2(dst, doff, ds, dl, src, soff, ss, sl, w0, 0, w1, 0, 1)
	}
}

func sr32wPair(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w []complex128, woff, ws, wl int) {
	sr32w2(dst, doff, ds, dl, src, soff, ss, sl, w, woff, w, woff+wl, ws)
}

func sr64(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
	if w == nil {
		sr64n(dst, doff, ds, src, soff, ss)
	} else {
		sr64w(dst, doff, ds, src, soff, ss, w, 0, 1)
	}
}

func sr64Pair(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w0, w1 []complex128) {
	if w0 == nil {
		sr64n2(dst, doff, ds, dl, src, soff, ss, sl)
	} else {
		sr64w2(dst, doff, ds, dl, src, soff, ss, sl, w0, 0, w1, 0, 1)
	}
}

func sr64wPair(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w []complex128, woff, ws, wl int) {
	sr64w2(dst, doff, ds, dl, src, soff, ss, sl, w, woff, w, woff+wl, ws)
}

// sr128n computes DFT_128 = (DFT_16 ⊗ I_8) · D_{16,8} · (I_16 ⊗ DFT_8) · L^128_16
// over the straight-line kernels, with the diagonal fused into stage 2.
func sr128n(dst []complex128, doff, ds int, src []complex128, soff, ss int) {
	var t [128]complex128
	for i := 0; i < 16; i += 2 {
		sr8n2(t[:], 8*i, 1, 8, src, soff+i*ss, 16*ss, ss)
	}
	for j := 0; j < 8; j += 2 {
		sr16w2(dst, doff+j*ds, 8*ds, ds, t[:], j, 8, 1, srtw16x8, 16*j, srtw16x8, 16*j+16, 1)
	}
}

// sr128w is sr128n with a strided input scale fused into stage 1.
func sr128w(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int) {
	var t [128]complex128
	for i := 0; i < 16; i += 2 {
		sr8w2(t[:], 8*i, 1, 8, src, soff+i*ss, 16*ss, ss, w, woff+i*ws, w, woff+(i+1)*ws, 16*ws)
	}
	for j := 0; j < 8; j += 2 {
		sr16w2(dst, doff+j*ds, 8*ds, ds, t[:], j, 8, 1, srtw16x8, 16*j, srtw16x8, 16*j+16, 1)
	}
}

func sr128(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
	if w == nil {
		sr128n(dst, doff, ds, src, soff, ss)
	} else {
		sr128w(dst, doff, ds, src, soff, ss, w, 0, 1)
	}
}

// sr256n computes DFT_256 = (DFT_16 ⊗ I_16) · D_{16,16} · (I_16 ⊗ DFT_16) · L^256_16
// over the straight-line kernels, with the diagonal fused into stage 2.
func sr256n(dst []complex128, doff, ds int, src []complex128, soff, ss int) {
	var t [256]complex128
	for i := 0; i < 16; i += 2 {
		sr16n2(t[:], 16*i, 1, 16, src, soff+i*ss, 16*ss, ss)
	}
	for j := 0; j < 16; j += 2 {
		sr16w2(dst, doff+j*ds, 16*ds, ds, t[:], j, 16, 1, srtw16x16, 16*j, srtw16x16, 16*j+16, 1)
	}
}

// sr256w is sr256n with a strided input scale fused into stage 1.
func sr256w(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int) {
	var t [256]complex128
	for i := 0; i < 16; i += 2 {
		sr16w2(t[:], 16*i, 1, 16, src, soff+i*ss, 16*ss, ss, w, woff+i*ws, w, woff+(i+1)*ws, 16*ws)
	}
	for j := 0; j < 16; j += 2 {
		sr16w2(dst, doff+j*ds, 16*ds, ds, t[:], j, 16, 1, srtw16x16, 16*j, srtw16x16, 16*j+16, 1)
	}
}

func sr256(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
	if w == nil {
		sr256n(dst, doff, ds, src, soff, ss)
	} else {
		sr256w(dst, doff, ds, src, soff, ss, w, 0, 1)
	}
}
