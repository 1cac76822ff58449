// Code generated by "go run spiralfft/cmd/codeletgen"; DO NOT EDIT.

//go:build !purego

// The amd64 entry points of the straight-line split-radix kernels, whose
// bodies are SSE2 assembly, and of their two-lane forms, whose bodies are
// AVX assembly (zsplitradix_amd64.s) when the CPU has AVX and two SSE2
// calls when it has not. Each wrapper checks the first and the last index
// of every run of dst, src and w, both lanes' at two lanes, before the
// assembly runs: every index of a strided run lies between the two, so a
// bad call panics with a runtime bounds error and writes nothing.

package codelet

import "math"

// srLast returns off + (n-1)·s, the index of the last element of a strided
// run of n, or -1, which no slice accepts, when (n-1)·|s| exceeds
// math.MaxInt/2 and the sum could overflow.
func srLast(off, s, n int) int {
	if lim := math.MaxInt / 2 / (n - 1); s > lim || s < -lim {
		return -1
	}
	return off + (n-1)*s
}

// srRun panics with a runtime bounds error unless the run of n from off at
// stride s lies within x.
func srRun(x []complex128, off, s, n int) {
	_, _ = x[off], x[srLast(off, s, n)]
}

// srLanes checks the runs of two lanes, from off and off+l, as srRun does,
// and returns lane 1's offset.
func srLanes(x []complex128, off, s, l, n int) int {
	srRun(x, off, s, n)
	srRun(x, off+l, s, n)
	return off + l
}

// sr8n computes a no-twiddle 8-point conjugate-pair split-radix DFT.
func sr8n(dst []complex128, doff, ds int, src []complex128, soff, ss int) {
	_ = dst[srLast(doff, ds, 8)]
	_ = src[srLast(soff, ss, 8)]
	sr8nSSE2(&dst[doff], ds, &src[soff], ss)
}

// sr8w is sr8n with a strided per-input scale vector fused into the loads.
func sr8w(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int) {
	_ = dst[srLast(doff, ds, 8)]
	_ = src[srLast(soff, ss, 8)]
	_ = w[srLast(woff, ws, 8)]
	sr8wSSE2(&dst[doff], ds, &src[soff], ss, &w[woff], ws)
}

// sr8n2 runs sr8n on two lanes, lane 1 at doff+dl and soff+sl.
func sr8n2(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int) {
	d1, s1 := srLanes(dst, doff, ds, dl, 8), srLanes(src, soff, ss, sl, 8)
	if hasAVX {
		sr8n2AVX(&dst[doff], ds, &src[soff], ss, &dst[d1], &src[s1])
		return
	}
	sr8nSSE2(&dst[doff], ds, &src[soff], ss)
	sr8nSSE2(&dst[d1], ds, &src[s1], ss)
}

// sr8w2 runs sr8w on two lanes, lane 1 at doff+dl and soff+sl with the
// scale vector w1 from w1off.
func sr8w2(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w0 []complex128, w0off int, w1 []complex128, w1off, ws int) {
	d1, s1 := srLanes(dst, doff, ds, dl, 8), srLanes(src, soff, ss, sl, 8)
	srRun(w0, w0off, ws, 8)
	srRun(w1, w1off, ws, 8)
	if hasAVX {
		sr8w2AVX(&dst[doff], ds, &src[soff], ss, &w0[w0off], ws, &dst[d1], &src[s1], &w1[w1off])
		return
	}
	sr8wSSE2(&dst[doff], ds, &src[soff], ss, &w0[w0off], ws)
	sr8wSSE2(&dst[d1], ds, &src[s1], ss, &w1[w1off], ws)
}

//go:noescape
func sr8nSSE2(dst *complex128, ds int, src *complex128, ss int)

//go:noescape
func sr8wSSE2(dst *complex128, ds int, src *complex128, ss int, w *complex128, ws int)

//go:noescape
func sr8n2AVX(dst *complex128, ds int, src *complex128, ss int, dst1, src1 *complex128)

//go:noescape
func sr8w2AVX(dst *complex128, ds int, src *complex128, ss int, w *complex128, ws int, dst1, src1, w1 *complex128)

// sr16n computes a no-twiddle 16-point conjugate-pair split-radix DFT.
func sr16n(dst []complex128, doff, ds int, src []complex128, soff, ss int) {
	_ = dst[srLast(doff, ds, 16)]
	_ = src[srLast(soff, ss, 16)]
	sr16nSSE2(&dst[doff], ds, &src[soff], ss)
}

// sr16w is sr16n with a strided per-input scale vector fused into the loads.
func sr16w(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int) {
	_ = dst[srLast(doff, ds, 16)]
	_ = src[srLast(soff, ss, 16)]
	_ = w[srLast(woff, ws, 16)]
	sr16wSSE2(&dst[doff], ds, &src[soff], ss, &w[woff], ws)
}

// sr16n2 runs sr16n on two lanes, lane 1 at doff+dl and soff+sl.
func sr16n2(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int) {
	d1, s1 := srLanes(dst, doff, ds, dl, 16), srLanes(src, soff, ss, sl, 16)
	if hasAVX {
		sr16n2AVX(&dst[doff], ds, &src[soff], ss, &dst[d1], &src[s1])
		return
	}
	sr16nSSE2(&dst[doff], ds, &src[soff], ss)
	sr16nSSE2(&dst[d1], ds, &src[s1], ss)
}

// sr16w2 runs sr16w on two lanes, lane 1 at doff+dl and soff+sl with the
// scale vector w1 from w1off.
func sr16w2(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w0 []complex128, w0off int, w1 []complex128, w1off, ws int) {
	d1, s1 := srLanes(dst, doff, ds, dl, 16), srLanes(src, soff, ss, sl, 16)
	srRun(w0, w0off, ws, 16)
	srRun(w1, w1off, ws, 16)
	if hasAVX {
		sr16w2AVX(&dst[doff], ds, &src[soff], ss, &w0[w0off], ws, &dst[d1], &src[s1], &w1[w1off])
		return
	}
	sr16wSSE2(&dst[doff], ds, &src[soff], ss, &w0[w0off], ws)
	sr16wSSE2(&dst[d1], ds, &src[s1], ss, &w1[w1off], ws)
}

//go:noescape
func sr16nSSE2(dst *complex128, ds int, src *complex128, ss int)

//go:noescape
func sr16wSSE2(dst *complex128, ds int, src *complex128, ss int, w *complex128, ws int)

//go:noescape
func sr16n2AVX(dst *complex128, ds int, src *complex128, ss int, dst1, src1 *complex128)

//go:noescape
func sr16w2AVX(dst *complex128, ds int, src *complex128, ss int, w *complex128, ws int, dst1, src1, w1 *complex128)

// sr32n computes a no-twiddle 32-point conjugate-pair split-radix DFT.
func sr32n(dst []complex128, doff, ds int, src []complex128, soff, ss int) {
	_ = dst[srLast(doff, ds, 32)]
	_ = src[srLast(soff, ss, 32)]
	sr32nSSE2(&dst[doff], ds, &src[soff], ss)
}

// sr32w is sr32n with a strided per-input scale vector fused into the loads.
func sr32w(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int) {
	_ = dst[srLast(doff, ds, 32)]
	_ = src[srLast(soff, ss, 32)]
	_ = w[srLast(woff, ws, 32)]
	sr32wSSE2(&dst[doff], ds, &src[soff], ss, &w[woff], ws)
}

// sr32n2 runs sr32n on two lanes, lane 1 at doff+dl and soff+sl.
func sr32n2(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int) {
	d1, s1 := srLanes(dst, doff, ds, dl, 32), srLanes(src, soff, ss, sl, 32)
	if hasAVX {
		sr32n2AVX(&dst[doff], ds, &src[soff], ss, &dst[d1], &src[s1])
		return
	}
	sr32nSSE2(&dst[doff], ds, &src[soff], ss)
	sr32nSSE2(&dst[d1], ds, &src[s1], ss)
}

// sr32w2 runs sr32w on two lanes, lane 1 at doff+dl and soff+sl with the
// scale vector w1 from w1off.
func sr32w2(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w0 []complex128, w0off int, w1 []complex128, w1off, ws int) {
	d1, s1 := srLanes(dst, doff, ds, dl, 32), srLanes(src, soff, ss, sl, 32)
	srRun(w0, w0off, ws, 32)
	srRun(w1, w1off, ws, 32)
	if hasAVX {
		sr32w2AVX(&dst[doff], ds, &src[soff], ss, &w0[w0off], ws, &dst[d1], &src[s1], &w1[w1off])
		return
	}
	sr32wSSE2(&dst[doff], ds, &src[soff], ss, &w0[w0off], ws)
	sr32wSSE2(&dst[d1], ds, &src[s1], ss, &w1[w1off], ws)
}

//go:noescape
func sr32nSSE2(dst *complex128, ds int, src *complex128, ss int)

//go:noescape
func sr32wSSE2(dst *complex128, ds int, src *complex128, ss int, w *complex128, ws int)

//go:noescape
func sr32n2AVX(dst *complex128, ds int, src *complex128, ss int, dst1, src1 *complex128)

//go:noescape
func sr32w2AVX(dst *complex128, ds int, src *complex128, ss int, w *complex128, ws int, dst1, src1, w1 *complex128)

// sr64n computes a no-twiddle 64-point conjugate-pair split-radix DFT.
func sr64n(dst []complex128, doff, ds int, src []complex128, soff, ss int) {
	_ = dst[srLast(doff, ds, 64)]
	_ = src[srLast(soff, ss, 64)]
	sr64nSSE2(&dst[doff], ds, &src[soff], ss)
}

// sr64w is sr64n with a strided per-input scale vector fused into the loads.
func sr64w(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int) {
	_ = dst[srLast(doff, ds, 64)]
	_ = src[srLast(soff, ss, 64)]
	_ = w[srLast(woff, ws, 64)]
	sr64wSSE2(&dst[doff], ds, &src[soff], ss, &w[woff], ws)
}

// sr64n2 runs sr64n on two lanes, lane 1 at doff+dl and soff+sl.
func sr64n2(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int) {
	d1, s1 := srLanes(dst, doff, ds, dl, 64), srLanes(src, soff, ss, sl, 64)
	if hasAVX {
		sr64n2AVX(&dst[doff], ds, &src[soff], ss, &dst[d1], &src[s1])
		return
	}
	sr64nSSE2(&dst[doff], ds, &src[soff], ss)
	sr64nSSE2(&dst[d1], ds, &src[s1], ss)
}

// sr64w2 runs sr64w on two lanes, lane 1 at doff+dl and soff+sl with the
// scale vector w1 from w1off.
func sr64w2(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w0 []complex128, w0off int, w1 []complex128, w1off, ws int) {
	d1, s1 := srLanes(dst, doff, ds, dl, 64), srLanes(src, soff, ss, sl, 64)
	srRun(w0, w0off, ws, 64)
	srRun(w1, w1off, ws, 64)
	if hasAVX {
		sr64w2AVX(&dst[doff], ds, &src[soff], ss, &w0[w0off], ws, &dst[d1], &src[s1], &w1[w1off])
		return
	}
	sr64wSSE2(&dst[doff], ds, &src[soff], ss, &w0[w0off], ws)
	sr64wSSE2(&dst[d1], ds, &src[s1], ss, &w1[w1off], ws)
}

//go:noescape
func sr64nSSE2(dst *complex128, ds int, src *complex128, ss int)

//go:noescape
func sr64wSSE2(dst *complex128, ds int, src *complex128, ss int, w *complex128, ws int)

//go:noescape
func sr64n2AVX(dst *complex128, ds int, src *complex128, ss int, dst1, src1 *complex128)

//go:noescape
func sr64w2AVX(dst *complex128, ds int, src *complex128, ss int, w *complex128, ws int, dst1, src1, w1 *complex128)
