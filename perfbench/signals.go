package main

import (
	"math"
	"math/bits"
	"math/rand/v2"
	"slices"
)

// tones is the number of components in every generated input: few enough
// that the exact output is a handful of spikes (an O(N) reference), enough
// that a wrong twiddle or permutation cannot cancel out.
const tones = 4

// maxRelErr is the relative L2 error above which an output counts as wrong.
const maxRelErr = 1e-9

// An input is one seeded operand together with the exact output the
// transform must produce from it.
type input struct {
	c    []complex128 // complex operand (dft, wht, real inverse)
	r    []float64    // real operand (real forward)
	want reference
}

// A reference is an exact transform output: either sparse spikes (bins[j]
// holds vals[j], every other bin is zero; bins ascending), or a dense sum of
// tones (dense for complex outputs, real for real ones).
type reference struct {
	bins  []int
	vals  []complex128
	dense []complex128
	real  []float64
}

// makeInput draws one operand of kind k from rng. Forward DFT and real
// inputs are sums of tones, so their spectra are spikes; inverse inputs are
// spike spectra, so their outputs are sums of tones; WHT inputs are sums of
// Walsh functions, so their transforms are spikes.
func makeInput(k opKind, rng *rand.Rand) input {
	n := k.n
	var in input
	switch {
	case k.family == famDFT && !k.inverse:
		bins, amps := drawTones(rng, 0, n)
		in.c = sumTones(n, bins, amps)
		in.want = spikes(bins, amps, float64(n))
	case k.family == famDFT:
		bins, amps := drawTones(rng, 0, n)
		in.c = make([]complex128, n)
		for j, b := range bins {
			in.c[b] = complex(float64(n), 0) * amps[j]
		}
		in.want.dense = sumTones(n, bins, amps)
	case k.family == famReal && !k.inverse:
		// Σ Re(a_j·e^{2πi·k_j·t/n}) has X[k_j] = (n/2)·a_j in the half
		// spectrum; the conjugate spikes fall at n-k_j, beyond n/2.
		bins, amps := drawTones(rng, 1, n/2)
		in.r = realParts(sumTones(n, bins, amps))
		in.want = spikes(bins, amps, float64(n)/2)
	case k.family == famReal:
		bins, amps := drawTones(rng, 1, n/2)
		in.c = make([]complex128, n/2+1)
		for j, b := range bins {
			in.c[b] = complex(float64(n)/2, 0) * amps[j]
		}
		in.want.real = realParts(sumTones(n, bins, amps))
	case k.family == famWHT:
		// Column k of the Hadamard matrix is the Walsh function
		// w_k[t] = (-1)^popcount(k&t), and H·w_k = n·e_k.
		bins, amps := drawTones(rng, 0, n)
		in.c = make([]complex128, n)
		for t := range in.c {
			for j, b := range bins {
				if bits.OnesCount(uint(b&t))%2 == 0 {
					in.c[t] += amps[j]
				} else {
					in.c[t] -= amps[j]
				}
			}
		}
		in.want = spikes(bins, amps, float64(n))
	default:
		panic("perfbench: unknown op kind " + k.String())
	}
	return in
}

// zeroInput is an all-zero operand of kind k, shaped as makeInput shapes
// one.
func zeroInput(k opKind) input {
	switch {
	case k.family == famReal && !k.inverse:
		return input{r: make([]float64, k.n)}
	case k.family == famReal:
		return input{c: make([]complex128, k.n/2+1)}
	}
	return input{c: make([]complex128, k.n)}
}

// drawTones picks `tones` distinct bins in [lo, hi), ascending, each with a
// complex amplitude of modulus in [0.5, 1.5) and uniform phase.
func drawTones(rng *rand.Rand, lo, hi int) ([]int, []complex128) {
	bins := make([]int, 0, tones)
	for len(bins) < tones {
		if b := lo + rng.IntN(hi-lo); !slices.Contains(bins, b) {
			bins = append(bins, b)
		}
	}
	slices.Sort(bins)
	amps := make([]complex128, tones)
	for j := range amps {
		s, c := math.Sincos(2 * math.Pi * rng.Float64())
		r := 0.5 + rng.Float64()
		amps[j] = complex(r*c, r*s)
	}
	return bins, amps
}

// sumTones returns x[t] = Σ_j amps[j]·e^{2πi·bins[j]·t/n}, each root
// evaluated directly from its exactly reduced angle.
func sumTones(n int, bins []int, amps []complex128) []complex128 {
	x := make([]complex128, n)
	for j, b := range bins {
		for t := range x {
			s, c := math.Sincos(2 * math.Pi * float64(b*t%n) / float64(n))
			x[t] += amps[j] * complex(c, s)
		}
	}
	return x
}

func realParts(x []complex128) []float64 {
	r := make([]float64, len(x))
	for i, v := range x {
		r[i] = real(v)
	}
	return r
}

func spikes(bins []int, amps []complex128, scale float64) reference {
	vals := make([]complex128, len(amps))
	for j, a := range amps {
		vals[j] = complex(scale, 0) * a
	}
	return reference{bins: bins, vals: vals}
}

// relErr returns ‖out − want‖₂ / ‖want‖₂ for a complex output. The spike
// form subtracts each spike in place rather than correcting a total, so the
// error of the zero bins is not lost to cancellation.
func (ref *reference) relErr(out []complex128) float64 {
	var diff, norm float64
	if ref.dense != nil {
		for i, w := range ref.dense {
			diff += sqAbs(out[i] - w)
			norm += sqAbs(w)
		}
		return math.Sqrt(diff / norm)
	}
	next := 0
	for i, v := range out {
		if next < len(ref.bins) && ref.bins[next] == i {
			v -= ref.vals[next]
			norm += sqAbs(ref.vals[next])
			next++
		}
		diff += sqAbs(v)
	}
	return math.Sqrt(diff / norm)
}

// relErrReal is relErr for a real output.
func (ref *reference) relErrReal(out []float64) float64 {
	var diff, norm float64
	for i, w := range ref.real {
		diff += (out[i] - w) * (out[i] - w)
		norm += w * w
	}
	return math.Sqrt(diff / norm)
}

func sqAbs(v complex128) float64 { return real(v)*real(v) + imag(v)*imag(v) }

// tally counts the ops a run attempted and those that failed: a call that
// returned an error (a 429 included), or a checked output whose relative
// error exceeds maxRelErr. maxErr is the worst checked error.
type tally struct {
	attempted, failed int
	maxErr            float64
}

// add records one op and reports whether it succeeded. relErr is negative
// for an op whose output was not checked.
func (t *tally) add(err error, relErr float64) bool {
	t.attempted++
	if math.IsNaN(relErr) || math.IsInf(relErr, 0) {
		relErr = math.MaxFloat64
	}
	t.maxErr = max(t.maxErr, relErr)
	if err != nil || relErr > maxRelErr {
		t.failed++
		return false
	}
	return true
}

func (t *tally) merge(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.maxErr = max(t.maxErr, o.maxErr)
}
