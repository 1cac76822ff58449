// Code generated by "go run spiralfft/cmd/codeletgen"; DO NOT EDIT.

// Generated Walsh-Hadamard pass kernels (see internal/codegen/wht.go): one
// call runs s·(I_b ⊗ WHT_r ⊗ I_w) for r ∈ {2, 4, 8}, with the radix-2
// stages in ascending stride order, so a ladder of passes gives the radix-2
// loop's bits. They are SSE2 and AVX assembly on amd64 (zwht_amd64.s) and
// Go elsewhere and under the purego build tag (zwht_generic.go); every
// build computes the same bits.

package codelet

import (
	"fmt"
	"math"
)

// WHTPass computes s·(I_b ⊗ WHT_r ⊗ I_w) from src into dst for r ∈ {2, 4,
// 8}. Block i ∈ [0, b) starts at off+i·bs and holds r legs leg apart, each
// of w adjacent points; the r points at one offset of a block's legs are
// one WHT_r input, and its outputs go to the same indices of dst. The
// radix-2 stages run in ascending stride order and s multiplies each output
// in the final stage (s = 1 skips the multiply). dst may be src (in place);
// otherwise the two must not overlap.
//
// WHTPass panics with a runtime bounds error, before it writes anything,
// unless b, w ≥ 1, bs, leg ≥ 0 and the pass's first and last index lie
// within dst and src: every index of the pass lies between the two.
func WHTPass(dst, src []complex128, r, off, b, bs, leg, w int, s float64) {
	if r != 2 && r != 4 && r != 8 {
		panic(fmt.Sprintf("codelet: WHT pass radix %d not in {2, 4, 8}", r))
	}
	last := whtLast(r, off, b, bs, leg, w)
	_, _ = dst[off], dst[last]
	_, _ = src[off], src[last]
	dst, src = dst[off:], src[off:]
	switch {
	case r == 2 && s == 1:
		wht2(dst, src, b, bs, leg, w)
	case r == 2:
		wht2s(dst, src, b, bs, leg, w, s)
	case r == 4 && s == 1:
		wht4(dst, src, b, bs, leg, w)
	case r == 4:
		wht4s(dst, src, b, bs, leg, w, s)
	case r == 8 && s == 1:
		wht8(dst, src, b, bs, leg, w)
	case r == 8:
		wht8s(dst, src, b, bs, leg, w, s)
	}
}

// whtLast returns the last index of a pass, off+(b−1)·bs+(r−1)·leg+w−1, or
// -1, which no slice accepts, when b or w is below 1, off, bs or leg is
// negative, or a term exceeds math.MaxInt/4 and the sum could overflow.
func whtLast(r, off, b, bs, leg, w int) int {
	const lim = math.MaxInt / 4
	if b < 1 || w < 1 || off < 0 || bs < 0 || leg < 0 || off > lim || w > lim || bs > lim/b || leg > lim/(r-1) {
		return -1
	}
	return off + (b-1)*bs + (r-1)*leg + w - 1
}
