package codelet

import (
	"fmt"
	"math"
	"testing"

	"spiralfft/internal/complexvec"
)

// laneRun is the placement of a two-lane run of n at stride s, lane 1 l
// elements after lane 0: the offset of lane 0's element 0 and the length of
// a buffer holding both lanes.
func laneRun(s, l, n int) (off, size int) {
	lo, hi := 0, 0
	for _, i := range []int{l, (n - 1) * s, l + (n-1)*s} {
		lo, hi = min(lo, i), max(hi, i)
	}
	return -lo, hi - lo + 1
}

// pairLaneOffsets are the lane offsets every pair test runs: adjacent
// columns, every other column, the next block of an n = 32 stage, and the
// same backwards.
var pairLaneOffsets = []int{1, 2, 32, -1, -32}

// pairStrides are point strides at which no lane offset above makes the
// two lanes share an element.
var pairStrides = []int{3, 64, -3}

// bitsEqual reports whether x and y hold the same bits.
func bitsEqual(x, y []complex128) (int, bool) {
	for i := range x {
		if math.Float64bits(real(x[i])) != math.Float64bits(real(y[i])) ||
			math.Float64bits(imag(x[i])) != math.Float64bits(imag(y[i])) {
			return i, false
		}
	}
	return 0, true
}

// A pair call equals its two single-lane calls bit for bit: every generated
// size, both flavors through Apply2 (with and without a scale vector per
// lane) and ApplyW2, every lane offset at every stride, twiddle lane offsets
// 0 and l, out of place and with each lane in place.
func TestPairsMatchTwoCalls(t *testing.T) {
	for _, k := range All() {
		if k.ApplyW == nil {
			continue
		}
		n := k.N
		for _, s := range pairStrides {
			for _, l := range pairLaneOffsets {
				off, size := laneRun(s, l, n)
				for _, entry := range []string{"Apply2", "Apply2 with w", "ApplyW2", "ApplyW2 wl=0"} {
					for _, inPlace := range []bool{false, true} {
						name := fmt.Sprintf("%s %s s=%d l=%d in-place=%v", k.Name, entry, s, l, inPlace)
						seed := uint64(n*1000 + size)
						src := complexvec.Random(size, seed)
						w := complexvec.Random(size, seed+1)
						w0, w1 := w[:n], w[size-n:]
						wl := l
						if entry == "ApplyW2 wl=0" {
							wl = 0
						}
						want := complexvec.Random(size, seed+2)
						got := complexvec.Clone(want)
						wantSrc, gotSrc := src, complexvec.Clone(src)
						if inPlace {
							copy(want, src)
							copy(got, src)
							wantSrc, gotSrc = want, got
						}
						switch entry {
						case "Apply2":
							k.Apply(want, off, s, wantSrc, off, s, nil)
							k.Apply(want, off+l, s, wantSrc, off+l, s, nil)
							k.Apply2(got, off, s, l, gotSrc, off, s, l, nil, nil)
						case "Apply2 with w":
							k.Apply(want, off, s, wantSrc, off, s, w0)
							k.Apply(want, off+l, s, wantSrc, off+l, s, w1)
							k.Apply2(got, off, s, l, gotSrc, off, s, l, w0, w1)
						default:
							k.ApplyW(want, off, s, wantSrc, off, s, w, off, s)
							k.ApplyW(want, off+l, s, wantSrc, off+l, s, w, off+wl, s)
							k.ApplyW2(got, off, s, l, gotSrc, off, s, l, w, off, s, wl)
						}
						if i, ok := bitsEqual(got, want); !ok {
							t.Fatalf("%s: element %d = %v, two calls give %v", name, i, got[i], want[i])
						}
					}
				}
			}
		}
	}
}

// Every kernel handed out has pair entry points, filled in as two calls
// where the kernel brings none, and those give the two calls' bits.
func TestPairedFillsEveryKernel(t *testing.T) {
	for _, k := range append(All(), Naive(7), Naive(97)) {
		if k.Apply2 == nil || (k.ApplyW != nil) != (k.ApplyW2 != nil) {
			t.Fatalf("%s: Apply2 %v, ApplyW %v, ApplyW2 %v", k.Name, k.Apply2 != nil, k.ApplyW != nil, k.ApplyW2 != nil)
		}
		n := k.N
		off, size := laneRun(3, 1, n)
		src := complexvec.Random(size, uint64(n))
		w := complexvec.Random(2*n, uint64(n)+1)
		want, got := make([]complex128, size), make([]complex128, size)
		k.Apply(want, off, 3, src, off, 3, w[:n])
		k.Apply(want, off+1, 3, src, off+1, 3, w[n:])
		k.Apply2(got, off, 3, 1, src, off, 3, 1, w[:n], w[n:])
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("%s Apply2: element %d = %v, two calls give %v", k.Name, i, got[i], want[i])
		}
	}
}
