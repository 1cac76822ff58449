package exec

// Fast Walsh-Hadamard transform butterflies. The WHT shares the FFT's
// tensor structure but has no twiddle factors; its multicore two-stage
// schedule is lowered by ir.LowerWHT, whose WHT ops run these butterflies.

// WHTInPlace applies the 2^k-point WHT to buf (length a power of two) in
// place. The radix-2 stages run in fused pairs: one radix-4 pass performs
// the stages of strides s and 2s together, and a trailing radix-2 pass
// performs the last stage when k is odd. Every element sees the same
// radix-2 additions in the same order as the plain radix-2 loop, so the
// output is bit-identical to it, in half the passes over buf.
func WHTInPlace(buf []complex128) { WHTInPlaceScaled(buf, 1) }

// WHTInPlaceScaled is WHTInPlace with every output multiplied by s. The
// multiply rides in the final pass, so the scaled transform (the inverse
// WHT, s = 1/n) makes no extra pass over buf.
func WHTInPlaceScaled(buf []complex128, s float64) { WHTRowsScaled(buf, len(buf), 1, 1, s) }

// WHTRowsScaled computes s·(WHT_n ⊗ I_v) in place over n rows of v
// contiguous points, row i being buf[i·stride : i·stride+v] (stride ≥ v,
// n a power of two). The butterflies' elements are whole row slices, so a
// parallel WHT's last stage runs on each worker's column range of the rows
// without gathering columns. The passes are WHTInPlaceScaled's: radix-4
// pairs of radix-2 stages, a trailing radix-2 pass when log2 n is odd, and
// the scale in the final pass. Running WHT_a ⊗ I_v after I_a ⊗ WHT_v
// therefore gives bit for bit the output of WHTInPlaceScaled on a·v points.
func WHTRowsScaled(buf []complex128, n, stride, v int, s float64) {
	buf = buf[:(n-1)*stride+v]
	step := 1
	for ; 4*step <= n; step *= 4 {
		last := 4*step == n && s != 1
		if stride == v { // packed rows: each leg is step·v contiguous points
			pass4(buf, step*v, step*v, last, s)
			continue
		}
		for r := 0; r < step; r++ {
			pass4(buf[r*stride:], step*stride, v, last, s)
		}
	}
	if step < n { // odd log2 n: the stage of row stride n/2 remains
		if stride == v {
			pass2(buf, step*v, step*v, s)
			return
		}
		for r := 0; r < step; r++ {
			pass2(buf[r*stride:], step*stride, v, s)
		}
	}
}

// pass4 performs two radix-2 stages as one radix-4 pass over buf: blocks
// of four legs spaced leg apart, the first w points of each leg
// transformed, the outputs scaled by s when last is set.
func pass4(buf []complex128, leg, w int, last bool, s float64) {
	for i := 0; i < len(buf); i += 4 * leg {
		b0 := buf[i : i+w]
		b1 := buf[i+leg:][:len(b0)]
		b2 := buf[i+2*leg:][:len(b0)]
		b3 := buf[i+3*leg:][:len(b0)]
		for j := range b0 {
			a, b, c, d := b0[j], b1[j], b2[j], b3[j]
			ab, amb := a+b, a-b
			cd, cmd := c+d, c-d
			y0, y1, y2, y3 := ab+cd, amb+cmd, ab-cd, amb-cmd
			if last {
				y0, y1, y2, y3 = scaleBy(y0, s), scaleBy(y1, s), scaleBy(y2, s), scaleBy(y3, s)
			}
			b0[j], b1[j], b2[j], b3[j] = y0, y1, y2, y3
		}
	}
}

// pass2 is the final radix-2 stage: pass4's geometry with two legs, the
// outputs always scaled by s (a no-op multiply is skipped).
func pass2(buf []complex128, leg, w int, s float64) {
	for i := 0; i < len(buf); i += 2 * leg {
		lo := buf[i : i+w]
		hi := buf[i+leg:][:len(lo)]
		for j := range lo {
			a, b := lo[j], hi[j]
			y0, y1 := a+b, a-b
			if s != 1 {
				y0, y1 = scaleBy(y0, s), scaleBy(y1, s)
			}
			lo[j], hi[j] = y0, y1
		}
	}
}

// scaleBy multiplies z by the real s (two multiplies, not a complex one).
func scaleBy(z complex128, s float64) complex128 {
	return complex(real(z)*s, imag(z)*s)
}
