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

// runGenerated calls k in the n flavor (twiddled false) or the w flavor on a
// seeded input laid out for shape s and returns the whole dst buffer.
func runGenerated(k Kernel, twiddled bool, s callShape, seed uint64) []complex128 {
	n := k.N
	src := complexvec.Random(s.soff+n*s.ss, seed)
	dst := make([]complex128, s.doff+n*s.ds)
	if twiddled {
		w := complexvec.Random(s.woff+n*s.ws, seed+1)
		k.ApplyW(dst, s.doff, s.ds, src, s.soff, s.ss, w, s.woff, s.ws)
	} else {
		k.Apply(dst, s.doff, s.ds, src, s.soff, s.ss, nil)
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
// every entry point, plus a naive one.
func TestKernelsInPlace(t *testing.T) {
	kernels := append(All(), Naive(7))
	for _, k := range kernels {
		n := k.N
		for _, entry := range []string{"Apply", "Apply with w", "ApplyW"} {
			if entry == "ApplyW" && k.ApplyW == nil {
				continue
			}
			for _, s := range callShapes {
				s.doff, s.ds = s.soff, s.ss
				if entry == "Apply with w" {
					s.woff, s.ws = 0, 1
				}
				seed := uint64(n) + 7
				src := complexvec.Random(s.soff+n*s.ss, seed)
				w := complexvec.Random(s.woff+n*s.ws, seed+1)
				want := make([]complex128, len(src))
				buf := complexvec.Clone(src)
				switch entry {
				case "Apply":
					k.Apply(want, s.doff, s.ds, src, s.soff, s.ss, nil)
					k.Apply(buf, s.doff, s.ds, buf, s.soff, s.ss, nil)
				case "Apply with w":
					k.Apply(want, s.doff, s.ds, src, s.soff, s.ss, w)
					k.Apply(buf, s.doff, s.ds, buf, s.soff, s.ss, w)
				default:
					k.ApplyW(want, s.doff, s.ds, src, s.soff, s.ss, w, s.woff, s.ws)
					k.ApplyW(buf, s.doff, s.ds, buf, s.soff, s.ss, w, s.woff, s.ws)
				}
				for j := 0; j < n; j++ {
					i := s.doff + j*s.ds
					if buf[i] != want[i] {
						t.Fatalf("%s %s off=%d stride=%d: in-place output %d = %v, out of place %v",
							k.Name, entry, s.soff, s.ss, j, buf[i], want[i])
					}
				}
			}
		}
	}
}
