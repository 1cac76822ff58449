//go:build !purego

package codelet

import (
	"fmt"
	"testing"

	"spiralfft/internal/complexvec"
)

// asmLoop is one straight-line size's assembly loops, called directly with
// the widest body they may run and a stage of their own.
type asmLoop struct {
	n     int
	plain func(isa int, dst *complex128, ds, dl int, src *complex128, ss, sl, m int, stage *srStage)
	tw    func(isa int, dst *complex128, ds, dl int, src *complex128, ss, sl int, w *complex128, ws, wl, m int, stage *srStage)
}

var asmLoops = []asmLoop{
	{8, sr8nLoop, sr8wLoop},
	{16, sr16nLoop, sr16wLoop},
	{32, sr32nLoop, sr32wLoop},
	{64, sr64nLoop, sr64wLoop},
}

// compareISAs runs every assembly loop at two isa levels on the same
// inputs, over m lanes at each lane offset and stride, twiddled (w at the
// lane step, and shared) or not, out of place and in place, and fails on
// the first bit that differs.
func compareISAs(t *testing.T, wide, narrow int, ms []int) {
	stage := new(srStage)
	for _, p := range asmLoops {
		n := p.n
		for _, s0 := range loopStrides {
			for _, l0 := range loopLaneOffsets {
				for _, m := range ms {
					s, l := loopGeometry(s0, l0, m, n)
					off, size := loopRun(s, l, m, n)
					for _, wl := range []int{-1, l, 0} { // -1: no scale vector
						for _, inPlace := range []bool{false, true} {
							src := complexvec.Random(size, uint64(n+size+m))
							w := complexvec.Random(size, uint64(n+size+1))
							want, got := make([]complex128, size), make([]complex128, size)
							ws, gs := src, src
							if inPlace {
								copy(want, src)
								copy(got, src)
								ws, gs = want, got
							}
							run := func(isa int, dst, src []complex128) {
								if wl < 0 {
									p.plain(isa, &dst[off], s, l, &src[off], s, l, m, stage)
								} else {
									p.tw(isa, &dst[off], s, l, &src[off], s, l, &w[off], s, wl, m, stage)
								}
							}
							run(narrow, want, ws)
							run(wide, got, gs)
							if i, ok := bitsEqual(got, want); !ok {
								t.Fatalf("n=%d m=%d s=%d l=%d wl=%d in-place=%v: isa %d element %d = %v, isa %d gives %v",
									n, m, s, l, wl, inPlace, wide, i, got[i], narrow, want[i])
							}
						}
					}
				}
			}
		}
	}
}

// The AVX pairs against the SSE2 singles the loops run without AVX, called
// directly: on a host with AVX this is the one test of the SSE2 path's
// lanes after the first.
func TestAVXPairsMatchSSE2Fallback(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX: the loops run SSE2 alone, which TestLoopMatchesSingleCalls covers")
	}
	compareISAs(t, isaAVX, isaSSE2, []int{2, 3, 5})
}

// The AVX-512 quads against the AVX pairs, called directly, at lane counts
// that run quads alone, quads then a pair, and quads, a pair and a single:
// adjacent lanes read and written where they lie, every other lane offset
// through the stage.
func TestAVX512QuadsMatchAVXPairs(t *testing.T) {
	if loopISA < isaAVX512 {
		t.Skip("the CPU or OS lacks AVX-512F, DQ or the ZMM state: the loops never run quads")
	}
	compareISAs(t, isaAVX512, isaAVX, []int{4, 6, 7, 8, 9})
}

// BenchmarkLoopISA times the assembly loops at each isa level the host
// runs, in incache-p2's geometry (BenchmarkCodelets' loop cases): 16
// lanes, stage 1 gathering at stride 32 into blocks n apart, stage 2
// scaling columns one apart by twiddle columns 32 apart.
func BenchmarkLoopISA(b *testing.B) {
	const m, lanes = 32, 16
	stage := new(srStage)
	for _, p := range asmLoops {
		n := p.n
		src := complexvec.Random(n*m, 1)
		w := complexvec.Random(max(n, lanes)*m, 2) // stage 2 reads a twiddle column per lane
		wide := make([]complex128, n*m)
		for isa := isaSSE2; isa <= loopISA; isa++ {
			b.Run(fmt.Sprintf("n=%d/stage1/isa=%d", n, isa), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.plain(isa, &wide[0], 1, n, &src[0], m, 1, lanes, stage)
				}
			})
			if n > m {
				continue
			}
			b.Run(fmt.Sprintf("n=%d/stage2/isa=%d", n, isa), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					p.tw(isa, &wide[0], m, 1, &src[0], m, 1, &w[0], 1, m, lanes, stage)
				}
			})
		}
	}
}
