package exec

import "spiralfft/internal/codelet"

// Fast Walsh-Hadamard transform passes. The WHT shares the FFT's tensor
// structure but has no twiddle factors; its multicore two-stage schedule is
// lowered by ir.LowerWHT, whose WHT ops run these passes.

// WHTInPlace applies the 2^k-point WHT to buf (length a power of two) in
// place. The radix-2 stages run as generated pass kernels
// (codelet.WHTPass): radix-8 passes, smallest stride first, then one
// radix-4 or radix-2 pass when k mod 3 ≠ 0. Every element sees the same
// radix-2 additions in the same order as the plain radix-2 loop, so the
// output is bit-identical to it, in a third of the passes over buf.
func WHTInPlace(buf []complex128) { WHTInPlaceScaled(buf, 1) }

// WHTInPlaceScaled is WHTInPlace with every output multiplied by s. The
// multiply rides in the final pass, so the scaled transform (the inverse
// WHT, s = 1/n) makes no extra pass over buf.
func WHTInPlaceScaled(buf []complex128, s float64) { WHTRowsScaled(buf, len(buf), 1, 1, s) }

// WHTRowsScaled computes s·(WHT_n ⊗ I_v) in place over n rows of v
// contiguous points, row i being buf[i·stride : i·stride+v] (stride ≥ v,
// n a power of two). The butterflies' elements are whole row slices, so a
// parallel WHT's last stage runs on each worker's column range of the rows
// without gathering columns. The passes are WHTInPlaceScaled's, so running
// WHT_a ⊗ I_v after I_a ⊗ WHT_v gives bit for bit the output of
// WHTInPlaceScaled on a·v points.
func WHTRowsScaled(buf []complex128, n, stride, v int, s float64) { WHTRows(buf, buf, n, stride, v, s) }

// WHTRows is WHTRowsScaled from the rows of src into the same rows of dst:
// the first pass reads src and the rest run in place on dst. dst may be
// src; otherwise the two must not overlap.
func WHTRows(dst, src []complex128, n, stride, v int, s float64) {
	if n == 1 {
		copy(dst[:v], src[:v])
		return
	}
	for step := 1; step < n; {
		r := min(8, n/step)
		scale := 1.0
		if r*step == n {
			scale = s
		}
		// Each leg is step rows: one call when they are contiguous, else
		// one per row of a leg or one per block, whichever is fewer.
		blocks := n / (r * step)
		switch {
		case stride == v:
			codelet.WHTPass(dst, src, r, 0, blocks, r*step*v, step*v, step*v, scale)
		case step <= blocks:
			for q := 0; q < step; q++ {
				codelet.WHTPass(dst, src, r, q*stride, blocks, r*step*stride, step*stride, v, scale)
			}
		default:
			for i := 0; i < blocks; i++ {
				codelet.WHTPass(dst, src, r, i*r*step*stride, step, stride, step*stride, v, scale)
			}
		}
		step, src = step*r, dst
	}
}
