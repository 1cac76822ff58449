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
func WHTInPlaceScaled(buf []complex128, s float64) {
	n := len(buf)
	step := 1
	for ; 4*step <= n; step *= 4 {
		last := 4*step == n && s != 1
		for i := 0; i < n; i += 4 * step {
			b0 := buf[i : i+step]
			b1 := buf[i+step : i+2*step][:len(b0)]
			b2 := buf[i+2*step : i+3*step][:len(b0)]
			b3 := buf[i+3*step : i+4*step][:len(b0)]
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
	if step < n { // odd k: the stage of stride n/2 remains
		lo, hi := buf[:step], buf[step : 2*step][:step]
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
