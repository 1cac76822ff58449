package exec

import (
	"fmt"
	"math"
	"sync"

	"spiralfft/internal/codelet"
)

// Bluestein's chirp-z algorithm computes a DFT of arbitrary size n as a
// circular convolution of size m (the next power of two ≥ 2n-1), reducing
// large prime sizes from the naive O(n²) to O(n log n):
//
//	X[k] = c[k] · Σ_j (x[j]·c[j]) · conj(c[k-j]),   c[j] = e^{-iπ j²/n}
//
// The convolution runs through two forward FFTs and one inverse FFT of size
// m using the library's own power-of-two plans — the generator bootstraps
// itself. The spectrum of the chirp sequence is precomputed at plan time.

// bluesteinThreshold is the size above which prime (codelet-less) leaves
// use Bluestein instead of the naive O(n²) kernel. Below it the naive
// kernel's small constants win.
const bluesteinThreshold = 64

// bluestein holds the precomputed state for one size.
type bluestein struct {
	n, m  int
	plan  *Seq         // size-m power-of-two plan
	chirp []complex128 // c[j] = e^{-iπ j²/n}, j = 0..n-1
	vHat  []complex128 // DFT_m of the wrapped conjugate chirp, pre-scaled by 1/m
	bufs  sync.Pool    // per-call scratch: 2m elements + plan scratch
}

type bluesteinScratch struct {
	u       []complex128 // convolution workspace (m)
	scratch []complex128 // plan scratch
}

var (
	bluesteinMu    sync.Mutex
	bluesteinCache = map[int]codelet.Kernel{}
)

// bluesteinKernel returns the cached chirp-z kernel for n, building it on
// first use (construction plans a size-m FFT and transforms the chirp).
func bluesteinKernel(n int) codelet.Kernel {
	bluesteinMu.Lock()
	defer bluesteinMu.Unlock()
	if k, ok := bluesteinCache[n]; ok {
		return k
	}
	k := NewBluesteinKernel(n)
	bluesteinCache[n] = k
	return k
}

// leafKernel picks the kernel for a leaf of size n: unrolled codelet,
// Bluestein for large codelet-less sizes, naive otherwise.
func leafKernel(n int) codelet.Kernel {
	if k, ok := codelet.ForSize(n); ok {
		return k
	}
	if n > bluesteinThreshold {
		return bluesteinKernel(n)
	}
	return codelet.Naive(n)
}

// NewBluesteinKernel returns a strided DFT kernel of size n implemented by
// the chirp-z transform. The kernel is safe for concurrent use (per-call
// scratch comes from a pool), so parallel plans may share it.
func NewBluesteinKernel(n int) codelet.Kernel {
	if n < 2 {
		panic(fmt.Sprintf("exec: Bluestein size %d", n))
	}
	m := 1
	for m < 2*n-1 {
		m *= 2
	}
	plan := MustNewSeq(RadixTree(m))
	b := &bluestein{n: n, m: m, plan: plan}
	// Chirp: exponent j² mod 2n keeps the angle argument small and exact.
	b.chirp = make([]complex128, n)
	for j := 0; j < n; j++ {
		e := (int64(j) * int64(j)) % int64(2*n)
		ang := -math.Pi * float64(e) / float64(n)
		s, c := math.Sincos(ang)
		b.chirp[j] = complex(c, s)
	}
	// v[t] = conj(c[t]) for t = 0..n-1, mirrored at m-t for the negative
	// lags; elsewhere zero. Precompute V̂ = DFT_m(v) / m (the 1/m folds the
	// inverse-transform scaling into the pointwise product).
	v := make([]complex128, m)
	for t := 0; t < n; t++ {
		cc := complex(real(b.chirp[t]), -imag(b.chirp[t]))
		v[t] = cc
		if t > 0 {
			v[m-t] = cc
		}
	}
	b.vHat = make([]complex128, m)
	plan.Transform(b.vHat, v, plan.NewScratch())
	invM := complex(1/float64(m), 0)
	for i := range b.vHat {
		b.vHat[i] *= invM
	}
	b.bufs.New = func() any {
		return &bluesteinScratch{
			u:       make([]complex128, m),
			scratch: make([]complex128, plan.ScratchLen()),
		}
	}
	return codelet.Paired(codelet.Kernel{
		N:     n,
		Name:  fmt.Sprintf("bluestein%d", n),
		Apply: b.apply,
	})
}

func (b *bluestein) apply(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {
	s := b.bufs.Get().(*bluesteinScratch)
	defer b.bufs.Put(s)
	u := s.u
	// u[j] = x[j]·w[j]·c[j], zero-padded to m.
	for j := 0; j < b.n; j++ {
		v := src[soff+j*ss]
		if w != nil {
			v *= w[j]
		}
		u[j] = v * b.chirp[j]
	}
	for j := b.n; j < b.m; j++ {
		u[j] = 0
	}
	// Circular convolution with the chirp: u ← IDFT(DFT(u) ⊙ V̂·m)/m, with
	// the 1/m already folded into V̂ and the inverse done by the conjugate
	// trick around the forward plan.
	b.plan.Transform(u, u, s.scratch)
	for i := range u {
		u[i] = complex(real(u[i]), -imag(u[i])) * complex(real(b.vHat[i]), -imag(b.vHat[i]))
	}
	b.plan.Transform(u, u, s.scratch)
	// u now holds conj(conv) (the final conjugation is folded into the
	// output step): X[k] = c[k]·conj(u[k]).
	for k := 0; k < b.n; k++ {
		dst[doff+k*ds] = b.chirp[k] * complex(real(u[k]), -imag(u[k]))
	}
}
