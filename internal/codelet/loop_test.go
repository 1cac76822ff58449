package codelet

import (
	"fmt"
	"math"
	"testing"

	"spiralfft/internal/complexvec"
)

// loopLaneOffsets are the lane offsets every loop test runs: adjacent
// columns, every other column, the next block of an n = 32 stage, and the
// same backwards.
var loopLaneOffsets = []int{1, 2, 32, -1, -32}

// loopStrides are the point strides every loop test runs; at stride 1 the
// lanes are blocks, whose elements the quads move as 4×4 transposes.
var loopStrides = []int{3, 64, -3, 1}

// lanesDisjoint reports whether m lanes of n elements at stride s, lane i
// at i·l, share no element: whether no Δi < m and Δj < n meet at Δi·l = Δj·s.
func lanesDisjoint(s, l, m, n int) bool {
	for di := 1; di < m; di++ {
		if d := di * l; d%s == 0 && abs(d/s) < n {
			return false
		}
	}
	return true
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// loopGeometry returns the point stride and lane offset a loop test runs
// at: s and l, one of them times the least factor that keeps the m lanes
// apart, the lane offset at stride 1 and the stride otherwise.
func loopGeometry(s, l, m, n int) (int, int) {
	for k := 1; ; k++ {
		switch {
		case abs(s) == 1 && lanesDisjoint(s, l*k, m, n):
			return s, l * k
		case abs(s) != 1 && lanesDisjoint(s*k, l, m, n):
			return s * k, l
		}
	}
}

// loopRun is the placement of m lanes of n at stride s, lane i at i·l: the
// offset of lane 0's element 0 and the length of a buffer holding them all.
func loopRun(s, l, m, n int) (off, size int) {
	lo, hi := 0, 0
	for _, i := range []int{(m - 1) * l, (n - 1) * s, (m-1)*l + (n-1)*s} {
		lo, hi = min(lo, i), max(hi, i)
	}
	return -lo, hi - lo + 1
}

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

// A loop call equals its m single calls bit for bit: every generated size,
// m = 1…9 lanes, every lane offset at every point stride (one of them
// widened where the lanes would meet), without a scale vector and with one strided at
// the lane step or shared by every lane, out of place and with each lane
// in place.
func TestLoopMatchesSingleCalls(t *testing.T) {
	for _, k := range All() {
		if k.ApplyW == nil {
			continue
		}
		n := k.N
		for _, s0 := range loopStrides {
			for _, l0 := range loopLaneOffsets {
				for m := 1; m <= 9; m++ {
					s, l := loopGeometry(s0, l0, m, n)
					off, size := loopRun(s, l, m, n)
					for _, scale := range []string{"no w", "w at the lane step", "w shared"} {
						for _, inPlace := range []bool{false, true} {
							seed := uint64(n*1000 + size + m)
							src := complexvec.Random(size, seed)
							var w []complex128
							wl := l
							switch scale {
							case "w at the lane step":
								w = complexvec.Random(size, seed+1)
							case "w shared":
								w, wl = complexvec.Random(size, seed+1), 0
							}
							want := complexvec.Random(size, seed+2)
							got := complexvec.Clone(want)
							wantSrc, gotSrc := src, complexvec.Clone(src)
							if inPlace {
								copy(want, src)
								copy(got, src)
								wantSrc, gotSrc = want, got
							}
							for i := 0; i < m; i++ {
								if w == nil {
									k.Apply(want, off+i*l, s, wantSrc, off+i*l, s, nil)
								} else {
									k.ApplyW(want, off+i*l, s, wantSrc, off+i*l, s, w, off+i*wl, s)
								}
							}
							k.Loop(got, off, s, l, gotSrc, off, s, l, w, off, s, wl, m)
							if i, ok := bitsEqual(got, want); !ok {
								t.Fatalf("%s m=%d s=%d l=%d %s in-place=%v: element %d = %v, single calls give %v",
									k.Name, m, s, l, scale, inPlace, i, got[i], want[i])
							}
						}
					}
				}
			}
		}
	}
}

// Every kernel has a loop entry, a loop of Apply or ApplyW where the
// kernel brings none, and it gives the single calls' bits, with a scale
// vector at unit stride for the kernels without ApplyW.
func TestLoopFallbackEveryKernel(t *testing.T) {
	for _, k := range append(All(), Naive(7), Naive(97)) {
		n := k.N
		const m, s, l = 3, 3, 1
		off, size := loopRun(s, l, m, n)
		src := complexvec.Random(size, uint64(n))
		w := complexvec.Random(m*n, uint64(n)+1)
		want, got := make([]complex128, size), make([]complex128, size)
		for i := 0; i < m; i++ {
			k.Apply(want, off+i*l, s, src, off+i*l, s, w[i*n:])
		}
		k.Loop(got, off, s, l, src, off, s, l, w, 0, 1, n, m)
		if i, ok := bitsEqual(got, want); !ok {
			t.Fatalf("%s Loop: element %d = %v, single calls give %v", k.Name, i, got[i], want[i])
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("a strided scale vector for a kernel without ApplyW did not panic")
		}
	}()
	k := Naive(5)
	x := make([]complex128, 10)
	k.Loop(x, 0, 1, 5, x, 0, 1, 5, x, 0, 2, 0, 1)
}

func ExampleKernel_Loop() {
	// DFT_8 ⊗ I_2 as one call: two 8-point transforms of interleaved
	// signals, lane 1 one element after lane 0 on both sides.
	k, _ := ForSize(8)
	src := make([]complex128, 16)
	src[0], src[1] = 1, 2 // lane 0 and lane 1 impulses
	dst := make([]complex128, 16)
	k.Loop(dst, 0, 2, 1, src, 0, 2, 1, nil, 0, 0, 0, 2)
	fmt.Println(dst[0], dst[1], dst[14], dst[15])
	// Output: (1+0i) (2+0i) (1+0i) (2+0i)
}

// Loops on several goroutines at once, each staging its quads (dst and w
// lanes n apart, as incache-p2's stage 1 writes dst), give the bits of
// their single calls: no two loops share a stage while they run.
func TestLoopConcurrentStages(t *testing.T) {
	const goroutines, rounds, m, lanes = 4, 50, 32, 16
	for _, n := range []int{8, 32, 64} {
		k, _ := ForSize(n)
		src := complexvec.Random(n*m, uint64(n))
		w := complexvec.Random(n*m, uint64(n+1))
		want := make([]complex128, n*m)
		for i := 0; i < lanes; i++ {
			k.ApplyW(want, i*n, 1, src, i, m, w, i*n, 1)
		}
		errs := make(chan error, goroutines)
		for g := 0; g < goroutines; g++ {
			go func() {
				got := make([]complex128, n*m)
				for r := 0; r < rounds; r++ {
					k.Loop(got, 0, 1, n, src, 0, m, 1, w, 0, 1, n, lanes)
					if i, ok := bitsEqual(got, want); !ok {
						errs <- fmt.Errorf("n=%d round %d: element %d = %v, want %v", n, r, i, got[i], want[i])
						return
					}
				}
				errs <- nil
			}()
		}
		for g := 0; g < goroutines; g++ {
			if err := <-errs; err != nil {
				t.Error(err)
			}
		}
	}
}
