// Code generated by "go run spiralfft/cmd/codeletgen"; DO NOT EDIT.

//go:build !purego

// The amd64 entry points of the WHT pass kernels: the AVX kernel, two
// points per YMM register, when the CPU has AVX, else the SSE2 kernel, one
// point per XMM register. WHTPass has checked the bounds.

package codelet

func wht2(dst, src []complex128, b, bs, leg, w int) {
	if hasAVX {
		wht2AVX(&dst[0], &src[0], b, bs, leg, w)
		return
	}
	wht2SSE2(&dst[0], &src[0], b, bs, leg, w)
}

//go:noescape
func wht2SSE2(dst, src *complex128, b, bs, leg, w int)

//go:noescape
func wht2AVX(dst, src *complex128, b, bs, leg, w int)

func wht2s(dst, src []complex128, b, bs, leg, w int, s float64) {
	if hasAVX {
		wht2sAVX(&dst[0], &src[0], b, bs, leg, w, s)
		return
	}
	wht2sSSE2(&dst[0], &src[0], b, bs, leg, w, s)
}

//go:noescape
func wht2sSSE2(dst, src *complex128, b, bs, leg, w int, s float64)

//go:noescape
func wht2sAVX(dst, src *complex128, b, bs, leg, w int, s float64)

func wht4(dst, src []complex128, b, bs, leg, w int) {
	if hasAVX {
		wht4AVX(&dst[0], &src[0], b, bs, leg, w)
		return
	}
	wht4SSE2(&dst[0], &src[0], b, bs, leg, w)
}

//go:noescape
func wht4SSE2(dst, src *complex128, b, bs, leg, w int)

//go:noescape
func wht4AVX(dst, src *complex128, b, bs, leg, w int)

func wht4s(dst, src []complex128, b, bs, leg, w int, s float64) {
	if hasAVX {
		wht4sAVX(&dst[0], &src[0], b, bs, leg, w, s)
		return
	}
	wht4sSSE2(&dst[0], &src[0], b, bs, leg, w, s)
}

//go:noescape
func wht4sSSE2(dst, src *complex128, b, bs, leg, w int, s float64)

//go:noescape
func wht4sAVX(dst, src *complex128, b, bs, leg, w int, s float64)

func wht8(dst, src []complex128, b, bs, leg, w int) {
	if hasAVX {
		wht8AVX(&dst[0], &src[0], b, bs, leg, w)
		return
	}
	wht8SSE2(&dst[0], &src[0], b, bs, leg, w)
}

//go:noescape
func wht8SSE2(dst, src *complex128, b, bs, leg, w int)

//go:noescape
func wht8AVX(dst, src *complex128, b, bs, leg, w int)

func wht8s(dst, src []complex128, b, bs, leg, w int, s float64) {
	if hasAVX {
		wht8sAVX(&dst[0], &src[0], b, bs, leg, w, s)
		return
	}
	wht8sSSE2(&dst[0], &src[0], b, bs, leg, w, s)
}

//go:noescape
func wht8sSSE2(dst, src *complex128, b, bs, leg, w int, s float64)

//go:noescape
func wht8sAVX(dst, src *complex128, b, bs, leg, w int, s float64)
