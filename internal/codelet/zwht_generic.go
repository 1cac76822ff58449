// Code generated by "go run spiralfft/cmd/codeletgen"; DO NOT EDIT.

//go:build !amd64 || purego

// The WHT pass kernels in Go: the build for architectures other than amd64
// and for the purego tag. zwht_amd64.s holds the same kernels, lowered from
// the same scheduled op list, in SSE2 and AVX assembly.

package codelet

// wht2 computes I_b ⊗ WHT_2 ⊗ I_w from src into dst.
func wht2(dst, src []complex128, b, bs, leg, w int) {
	for i := 0; i < b; i++ {
		for j := i * bs; j < i*bs+w; j++ {
			v0 := src[j]
			v1 := src[j+leg]
			v2 := v0 + v1
			dst[j] = v2
			v3 := v0 - v1
			dst[j+leg] = v3
		}
	}
}

// wht2s computes I_b ⊗ WHT_2 ⊗ I_w from src into dst, each output times s.
func wht2s(dst, src []complex128, b, bs, leg, w int, s float64) {
	for i := 0; i < b; i++ {
		for j := i * bs; j < i*bs+w; j++ {
			v0 := src[j]
			v1 := src[j+leg]
			v2 := v0 + v1
			v3 := v0 - v1
			v4 := complex(real(v2)*s, imag(v2)*s)
			dst[j] = v4
			v5 := complex(real(v3)*s, imag(v3)*s)
			dst[j+leg] = v5
		}
	}
}

// wht4 computes I_b ⊗ WHT_4 ⊗ I_w from src into dst.
func wht4(dst, src []complex128, b, bs, leg, w int) {
	for i := 0; i < b; i++ {
		for j := i * bs; j < i*bs+w; j++ {
			v0 := src[j]
			v1 := src[j+leg]
			v4 := v0 + v1
			v5 := v0 - v1
			v2 := src[j+2*leg]
			v3 := src[j+3*leg]
			v6 := v2 + v3
			v7 := v2 - v3
			v8 := v4 + v6
			dst[j] = v8
			v9 := v4 - v6
			dst[j+2*leg] = v9
			v10 := v5 + v7
			dst[j+leg] = v10
			v11 := v5 - v7
			dst[j+3*leg] = v11
		}
	}
}

// wht4s computes I_b ⊗ WHT_4 ⊗ I_w from src into dst, each output times s.
func wht4s(dst, src []complex128, b, bs, leg, w int, s float64) {
	for i := 0; i < b; i++ {
		for j := i * bs; j < i*bs+w; j++ {
			v0 := src[j]
			v1 := src[j+leg]
			v4 := v0 + v1
			v5 := v0 - v1
			v2 := src[j+2*leg]
			v3 := src[j+3*leg]
			v6 := v2 + v3
			v7 := v2 - v3
			v8 := v4 + v6
			v9 := v4 - v6
			v10 := v5 + v7
			v11 := v5 - v7
			v12 := complex(real(v8)*s, imag(v8)*s)
			dst[j] = v12
			v13 := complex(real(v10)*s, imag(v10)*s)
			dst[j+leg] = v13
			v14 := complex(real(v9)*s, imag(v9)*s)
			dst[j+2*leg] = v14
			v15 := complex(real(v11)*s, imag(v11)*s)
			dst[j+3*leg] = v15
		}
	}
}

// wht8 computes I_b ⊗ WHT_8 ⊗ I_w from src into dst.
func wht8(dst, src []complex128, b, bs, leg, w int) {
	for i := 0; i < b; i++ {
		for j := i * bs; j < i*bs+w; j++ {
			v0 := src[j]
			v1 := src[j+leg]
			v8 := v0 + v1
			v9 := v0 - v1
			v2 := src[j+2*leg]
			v3 := src[j+3*leg]
			v10 := v2 + v3
			v11 := v2 - v3
			v4 := src[j+4*leg]
			v5 := src[j+5*leg]
			v12 := v4 + v5
			v13 := v4 - v5
			v6 := src[j+6*leg]
			v7 := src[j+7*leg]
			v14 := v6 + v7
			v15 := v6 - v7
			v16 := v8 + v10
			v17 := v8 - v10
			v18 := v9 + v11
			v19 := v9 - v11
			v20 := v12 + v14
			v21 := v12 - v14
			v22 := v13 + v15
			v23 := v13 - v15
			v24 := v16 + v20
			dst[j] = v24
			v25 := v16 - v20
			dst[j+4*leg] = v25
			v26 := v18 + v22
			dst[j+leg] = v26
			v27 := v18 - v22
			dst[j+5*leg] = v27
			v28 := v17 + v21
			dst[j+2*leg] = v28
			v29 := v17 - v21
			dst[j+6*leg] = v29
			v30 := v19 + v23
			dst[j+3*leg] = v30
			v31 := v19 - v23
			dst[j+7*leg] = v31
		}
	}
}

// wht8s computes I_b ⊗ WHT_8 ⊗ I_w from src into dst, each output times s.
func wht8s(dst, src []complex128, b, bs, leg, w int, s float64) {
	for i := 0; i < b; i++ {
		for j := i * bs; j < i*bs+w; j++ {
			v0 := src[j]
			v1 := src[j+leg]
			v8 := v0 + v1
			v9 := v0 - v1
			v2 := src[j+2*leg]
			v3 := src[j+3*leg]
			v10 := v2 + v3
			v11 := v2 - v3
			v4 := src[j+4*leg]
			v5 := src[j+5*leg]
			v12 := v4 + v5
			v13 := v4 - v5
			v6 := src[j+6*leg]
			v7 := src[j+7*leg]
			v14 := v6 + v7
			v15 := v6 - v7
			v16 := v8 + v10
			v17 := v8 - v10
			v18 := v9 + v11
			v19 := v9 - v11
			v20 := v12 + v14
			v21 := v12 - v14
			v22 := v13 + v15
			v23 := v13 - v15
			v24 := v16 + v20
			v25 := v16 - v20
			v26 := v18 + v22
			v27 := v18 - v22
			v28 := v17 + v21
			v29 := v17 - v21
			v30 := v19 + v23
			v31 := v19 - v23
			v32 := complex(real(v24)*s, imag(v24)*s)
			dst[j] = v32
			v33 := complex(real(v26)*s, imag(v26)*s)
			dst[j+leg] = v33
			v34 := complex(real(v28)*s, imag(v28)*s)
			dst[j+2*leg] = v34
			v35 := complex(real(v30)*s, imag(v30)*s)
			dst[j+3*leg] = v35
			v36 := complex(real(v25)*s, imag(v25)*s)
			dst[j+4*leg] = v36
			v37 := complex(real(v27)*s, imag(v27)*s)
			dst[j+5*leg] = v37
			v38 := complex(real(v29)*s, imag(v29)*s)
			dst[j+6*leg] = v38
			v39 := complex(real(v31)*s, imag(v31)*s)
			dst[j+7*leg] = v39
		}
	}
}
