package codelet

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"math"
	"os"
	"strings"
	"testing"

	"spiralfft/internal/complexvec"
)

// callShape is one call shape of a kernel: offsets and strides of dst, src
// and (for the fused flavor) the scale vector w.
type callShape struct {
	doff, ds, soff, ss, woff, ws int
}

var callShapes = []callShape{
	{0, 1, 0, 1, 0, 1}, // unit strides
	{2, 3, 3, 5, 1, 2}, // offsets and non-unit strides
}

// generatedKernels returns the generated tier: the kernels with a fused
// strided-twiddle entry point, ascending by size.
func generatedKernels(t *testing.T) []Kernel {
	var ks []Kernel
	for _, k := range All() {
		if k.ApplyW != nil {
			ks = append(ks, k)
		}
	}
	if len(ks) == 0 {
		t.Fatal("no generated kernels registered")
	}
	return ks
}

// runLen is the length of a buffer holding a strided run of n at pad: the
// run starts at pad (stride > 0) or ends there (stride < 0), and the buffer
// runs |stride| − 1 elements past the run's far end.
func runLen(pad, stride, n int) int {
	if stride < 0 {
		stride = -stride
	}
	return pad + n*stride
}

// runOff is the offset of element 0 of a strided run of n at pad: pad
// itself for a positive stride, the run's far end for a negative one.
func runOff(pad, stride, n int) int {
	if stride < 0 {
		return pad - (n-1)*stride
	}
	return pad
}

// runGenerated calls k in the n flavor (twiddled false) or the w flavor on a
// seeded input laid out for shape s and returns the whole dst buffer. The
// offsets of s are pads (runOff), so its strides may be negative.
func runGenerated(k Kernel, twiddled bool, s callShape, seed uint64) []complex128 {
	n := k.N
	src := complexvec.Random(runLen(s.soff, s.ss, n), seed)
	dst := make([]complex128, runLen(s.doff, s.ds, n))
	doff, soff := runOff(s.doff, s.ds, n), runOff(s.soff, s.ss, n)
	if twiddled {
		w := complexvec.Random(runLen(s.woff, s.ws, n), seed+1)
		k.ApplyW(dst, doff, s.ds, src, soff, s.ss, w, runOff(s.woff, s.ws, n), s.ws)
	} else {
		k.Apply(dst, doff, s.ds, src, soff, s.ss, nil)
	}
	return dst
}

// bitsDigest is the SHA-256 of the IEEE-754 bits of x, real then imaginary
// part of each element, little endian.
func bitsDigest(x []complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, v := range x {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(v)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(v)))
		h.Write(b[:])
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// generatedBitsListing renders one line per kernel, flavor, shape and seed:
// the digest of the exact output bits.
func generatedBitsListing(t *testing.T) string {
	var b strings.Builder
	for _, k := range generatedKernels(t) {
		for _, flavor := range []string{"n", "w"} {
			for _, s := range callShapes {
				for _, seed := range []uint64{1, 2} {
					dst := runGenerated(k, flavor == "w", s, uint64(k.N)*100+seed)
					fmt.Fprintf(&b, "%s%s doff=%d ds=%d soff=%d ss=%d woff=%d ws=%d seed=%d %s\n",
						k.Name, flavor, s.doff, s.ds, s.soff, s.ss, s.woff, s.ws, seed, bitsDigest(dst))
				}
			}
		}
	}
	return b.String()
}

// Package-level operands keep fusesMultiplyAdd's arithmetic out of the
// constant folder.
var fmaA, fmaB, fmaC = 1 + 0x1p-30, 1 - 0x1p-30, -1.0

// fusesMultiplyAdd reports whether this build contracts a*b + c into one
// fused multiply-add. a·b = 1 - 2^-60 rounds to 1, so the separately
// rounded sum is 0 and the fused one is -2^-60.
//
//go:noinline
func fusesMultiplyAdd() bool { return fmaA*fmaB+fmaC != 0 }

// The generated tier's outputs are pinned bit for bit: a change to the
// generator that only reorders statements (the register schedule) must
// leave every kernel's result unchanged. The golden digests were recorded
// without fused multiply-add contraction, which Go applies on some
// architectures and changes the rounding, so such builds skip the check.
func TestGeneratedKernelsBitIdentical(t *testing.T) {
	if fusesMultiplyAdd() {
		t.Skip("this build fuses multiply-add; the golden digests are for separately rounded arithmetic")
	}
	want, err := os.ReadFile("testdata/generated_bits.golden")
	if err != nil {
		t.Fatal(err)
	}
	got := generatedBitsListing(t)
	if got != string(want) {
		t.Errorf("generated kernel outputs changed bits; got:\n%s", got)
	}
}

// Every codelet is safe in place: called with dst == src at the same offset
// and stride it returns exactly its out-of-place result, because all of its
// loads run before its first store. The registered kernels are checked in
// every entry point, plus a naive one, at positive and negative strides
// (inverse programs store their last stage at a negative stride).
func TestKernelsInPlace(t *testing.T) {
	kernels := append(All(), Naive(7))
	shapes := append([]callShape{{1, -2, 1, -2, 2, -3}}, callShapes...)
	for _, k := range kernels {
		n := k.N
		for _, entry := range []string{"Apply", "Apply with w", "ApplyW"} {
			if entry == "ApplyW" && k.ApplyW == nil {
				continue
			}
			for _, s := range shapes {
				s.doff, s.ds = s.soff, s.ss
				if entry == "Apply with w" {
					s.woff, s.ws = 0, 1
				}
				seed := uint64(n) + 7
				src := complexvec.Random(runLen(s.soff, s.ss, n), seed)
				w := complexvec.Random(runLen(s.woff, s.ws, n), seed+1)
				off, woff := runOff(s.soff, s.ss, n), runOff(s.woff, s.ws, n)
				want := make([]complex128, len(src))
				buf := complexvec.Clone(src)
				switch entry {
				case "Apply":
					k.Apply(want, off, s.ss, src, off, s.ss, nil)
					k.Apply(buf, off, s.ss, buf, off, s.ss, nil)
				case "Apply with w":
					k.Apply(want, off, s.ss, src, off, s.ss, w)
					k.Apply(buf, off, s.ss, buf, off, s.ss, w)
				default:
					k.ApplyW(want, off, s.ss, src, off, s.ss, w, woff, s.ws)
					k.ApplyW(buf, off, s.ss, buf, off, s.ss, w, woff, s.ws)
				}
				for j := 0; j < n; j++ {
					i := off + j*s.ss
					if buf[i] != want[i] {
						t.Fatalf("%s %s off=%d stride=%d: in-place output %d = %v, out of place %v",
							k.Name, entry, off, s.ss, j, buf[i], want[i])
					}
				}
			}
		}
	}
}

// A call at stride -ds, starting where the +ds call ends, writes the same
// outputs in mirrored order, bit for bit: the kernel's arithmetic does not
// depend on the sign of its output stride. Checked for every registered
// kernel in both flavors and at negative input and scale strides too.
func TestKernelsNegativeStrideMirrors(t *testing.T) {
	for _, k := range All() {
		for _, flavor := range []string{"n", "w"} {
			if flavor == "w" && k.ApplyW == nil {
				continue
			}
			for _, s := range callShapes {
				seed := uint64(k.N)*100 + 3
				want := runGenerated(k, flavor == "w", s, seed)
				for _, m := range []callShape{
					{s.doff, -s.ds, s.soff, s.ss, s.woff, s.ws},
					{s.doff, -s.ds, s.soff, -s.ss, s.woff, -s.ws},
				} {
					// Mirror the inputs too when their strides flip, so the
					// kernel reads the same values.
					got := runMirrored(k, flavor == "w", s, m, seed)
					for i := range want {
						if math.Float64bits(real(got[len(got)-1-i])) != math.Float64bits(real(want[i])) ||
							math.Float64bits(imag(got[len(got)-1-i])) != math.Float64bits(imag(want[i])) {
							t.Fatalf("%s%s ds=%d ss=%d ws=%d: mirrored output %d = %v, want %v",
								k.Name, flavor, m.ds, m.ss, m.ws, i, got[len(got)-1-i], want[i])
						}
					}
				}
			}
		}
	}
}

// runMirrored is runGenerated at shape m, whose strides are those of s or
// their negations, on the inputs of runGenerated(k, twiddled, s, seed)
// reversed wherever m's stride is negated, so each call reads the same
// values at the same input positions.
func runMirrored(k Kernel, twiddled bool, s, m callShape, seed uint64) []complex128 {
	n := k.N
	src := complexvec.Random(runLen(s.soff, s.ss, n), seed)
	w := complexvec.Random(runLen(s.woff, s.ws, n), seed+1)
	soff, woff := runOff(s.soff, s.ss, n), runOff(s.woff, s.ws, n)
	if m.ss != s.ss {
		src, soff = reversed(src), len(src)-1-soff
	}
	if m.ws != s.ws {
		w, woff = reversed(w), len(w)-1-woff
	}
	dst := make([]complex128, runLen(m.doff, m.ds, n))
	doff := len(dst) - 1 - runOff(s.doff, s.ds, n)
	if twiddled {
		k.ApplyW(dst, doff, m.ds, src, soff, m.ss, w, woff, m.ws)
	} else {
		k.Apply(dst, doff, m.ds, src, soff, m.ss, nil)
	}
	return dst
}

func reversed(x []complex128) []complex128 {
	y := make([]complex128, len(x))
	for i, v := range x {
		y[len(x)-1-i] = v
	}
	return y
}
