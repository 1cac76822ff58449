package codelet

import (
	"math"
	"testing"

	"spiralfft/internal/complexvec"
)

// whtShape is one pass geometry: b blocks bs apart, legs leg apart, w
// points each, from offset off.
type whtShape struct{ off, b, bs, leg, w int }

// size is the length of a slice whose last element the pass touches.
func (g whtShape) size(r int) int { return g.off + (g.b-1)*g.bs + (r-1)*g.leg + g.w }

// whtShapes returns radix-r pass geometries whose points are all distinct:
// one block, packed legs, legs and blocks with gaps, and blocks interleaved
// between the legs (the calls of a row-form pass), at odd and even w.
func whtShapes(r int) []whtShape {
	var out []whtShape
	for _, w := range []int{1, 2, 3, 4, 5, 16, 17} {
		out = append(out,
			whtShape{0, 1, 0, w, w},
			whtShape{0, 3, r * w, w, w},
			whtShape{2, 2, r*(w+3) + 1, w + 3, w},
			whtShape{1, 3, w + 2, 3 * (w + 2), w})
	}
	return out
}

// refWHTPass is the pass from its definition: each group of r points runs
// the radix-2 stages by ascending stride, then each output is scaled by s
// as two real multiplies.
func refWHTPass(dst, src []complex128, r int, g whtShape, s float64) {
	x := make([]complex128, r)
	for i := 0; i < g.b; i++ {
		for j := 0; j < g.w; j++ {
			base := g.off + i*g.bs + j
			for k := range x {
				x[k] = src[base+k*g.leg]
			}
			for h := 1; h < r; h *= 2 {
				for a := 0; a < r; a += 2 * h {
					for c := a; c < a+h; c++ {
						x[c], x[c+h] = x[c]+x[c+h], x[c]-x[c+h]
					}
				}
			}
			for k, z := range x {
				dst[base+k*g.leg] = complex(real(z)*s, imag(z)*s)
			}
		}
	}
}

// WHTPass equals its definition bit for bit at every radix, geometry and
// scale, out of place and in place, and leaves the elements outside its
// points as they were.
func TestWHTPassMatchesDefinition(t *testing.T) {
	for _, r := range []int{2, 4, 8} {
		for _, g := range whtShapes(r) {
			size := g.size(r) + 2
			src := complexvec.Random(size, uint64(r*size))
			for _, s := range []float64{1, 0.125, 1 / 3.0} {
				for _, inPlace := range []bool{false, true} {
					got := make([]complex128, size)
					for i := range got {
						got[i] = complex(math.NaN(), float64(i))
					}
					in := src
					if inPlace {
						copy(got, src)
						in = got
					}
					want := complexvec.Clone(got)
					refWHTPass(want, complexvec.Clone(in), r, g, s)
					WHTPass(got, in, r, g.off, g.b, g.bs, g.leg, g.w, s)
					if i, ok := bitsEqual(got, want); !ok {
						t.Fatalf("r=%d %+v s=%g in place=%v: element %d = %v, want %v", r, g, s, inPlace, i, got[i], want[i])
					}
				}
			}
		}
	}
}

func TestWHTPassRejectsRadix(t *testing.T) {
	for _, r := range []int{1, 3, 16} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("radix %d accepted", r)
				}
			}()
			buf := make([]complex128, 64)
			WHTPass(buf, buf, r, 0, 1, 0, 1, 1, 1)
		}()
	}
}
