package exec

// Fast Walsh-Hadamard transform butterflies. The WHT shares the FFT's
// tensor structure but has no twiddle factors; its multicore two-stage
// schedule is lowered by ir.LowerWHT, whose WHT ops run these butterflies.

// WHTInPlace applies the 2^k-point WHT to buf (length a power of two) in
// place by radix-2 butterflies.
func WHTInPlace(buf []complex128) {
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
