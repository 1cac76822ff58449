//go:build !purego

package codelet

import (
	"testing"

	"spiralfft/internal/complexvec"
)

// asmPair is one straight-line size's assembly: the SSE2 kernels the
// two-call fallback runs and the AVX kernels that replace them.
type asmPair struct {
	n     int
	nSSE2 func(dst *complex128, ds int, src *complex128, ss int)
	wSSE2 func(dst *complex128, ds int, src *complex128, ss int, w *complex128, ws int)
	n2AVX func(dst *complex128, ds int, src *complex128, ss int, dst1, src1 *complex128)
	w2AVX func(dst *complex128, ds int, src *complex128, ss int, w *complex128, ws int, dst1, src1, w1 *complex128)
}

var asmPairs = []asmPair{
	{8, sr8nSSE2, sr8wSSE2, sr8n2AVX, sr8w2AVX},
	{16, sr16nSSE2, sr16wSSE2, sr16n2AVX, sr16w2AVX},
	{32, sr32nSSE2, sr32wSSE2, sr32n2AVX, sr32w2AVX},
	{64, sr64nSSE2, sr64wSSE2, sr64n2AVX, sr64w2AVX},
}

// The AVX kernels against the fallback the pair entry points take without
// AVX, two SSE2 calls, called directly: on a host with AVX this is the one
// test of the fallback's bits.
func TestAVXPairsMatchSSE2Fallback(t *testing.T) {
	if !hasAVX {
		t.Skip("no AVX: the pair entry points run the fallback, which TestPairsMatchTwoCalls covers")
	}
	for _, p := range asmPairs {
		n := p.n
		for _, s := range pairStrides {
			for _, l := range pairLaneOffsets {
				off, size := laneRun(s, l, n)
				src := complexvec.Random(size, uint64(n+size))
				w := complexvec.Random(size, uint64(n+size+1))
				for _, twiddled := range []bool{false, true} {
					want, got := make([]complex128, size), make([]complex128, size)
					if twiddled {
						p.wSSE2(&want[off], s, &src[off], s, &w[off], s)
						p.wSSE2(&want[off+l], s, &src[off+l], s, &w[off+l], s)
						p.w2AVX(&got[off], s, &src[off], s, &w[off], s, &got[off+l], &src[off+l], &w[off+l])
					} else {
						p.nSSE2(&want[off], s, &src[off], s)
						p.nSSE2(&want[off+l], s, &src[off+l], s)
						p.n2AVX(&got[off], s, &src[off], s, &got[off+l], &src[off+l])
					}
					if i, ok := bitsEqual(got, want); !ok {
						t.Fatalf("n=%d twiddled=%v s=%d l=%d: element %d = %v, SSE2 gives %v", n, twiddled, s, l, i, got[i], want[i])
					}
				}
			}
		}
	}
}
