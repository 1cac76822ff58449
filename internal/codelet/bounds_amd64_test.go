//go:build !purego

package codelet

import (
	"math"
	"runtime"
	"strings"
	"testing"

	"spiralfft/internal/complexvec"
)

// inverseMod returns a with a·x ≡ 1 (mod 2^64) for odd x.
func inverseMod(x uint64) uint64 {
	a := x // correct to 3 bits; each Newton step doubles that
	for i := 0; i < 5; i++ {
		a *= 2 - x*a
	}
	return a
}

// The straight-line kernels run as assembly, which checks no index: their Go
// wrappers check the first and the last index of each slice before the
// assembly runs. Every bad call must panic with a runtime bounds error and
// leave dst as it was: a run one past the end by its offset or by its
// stride, a negative stride that runs below index 0, and a stride whose
// (n-1)·stride wraps around to an index inside the slice.
func TestSSE2KernelsBoundsChecked(t *testing.T) {
	for _, n := range []int{8, 16, 32, 64} {
		k, _ := ForSize(n)
		const stride = 2
		size := (n-1)*stride + 1                 // exactly one run at stride 2
		wrap := int(inverseMod(uint64(n-1)) * 2) // (n-1)·wrap ≡ 2 (mod 2^64)
		type call struct{ doff, ds, soff, ss, woff, ws int }
		good := call{0, stride, 0, stride, 0, stride}
		cases := map[string]call{}
		for _, side := range []string{"dst", "src", "w"} {
			for name, bad := range map[string][2]int{
				"offset one past the end":  {1, stride},
				"stride one past the end":  {0, stride + 1},
				"negative stride below 0":  {n - 2, -1},
				"stride that wraps around": {0, wrap},
			} {
				c := good
				switch side {
				case "dst":
					c.doff, c.ds = bad[0], bad[1]
				case "src":
					c.soff, c.ss = bad[0], bad[1]
				default:
					c.woff, c.ws = bad[0], bad[1]
				}
				cases[side+" "+name] = c
			}
		}
		for name, c := range cases {
			for _, flavor := range []string{"Apply", "ApplyW"} {
				if flavor == "Apply" && strings.HasPrefix(name, "w ") {
					continue
				}
				src := complexvec.Random(size, uint64(n))
				w := complexvec.Random(size, uint64(n)+1)
				dst := make([]complex128, size)
				for i := range dst {
					dst[i] = complex(math.NaN(), 0)
				}
				before := complexvec.Clone(dst)
				func() {
					defer func() {
						err, _ := recover().(runtime.Error)
						if err == nil || !strings.Contains(err.Error(), "index out of range") {
							t.Errorf("%s %s %s: recovered %v, want a runtime bounds error", k.Name, flavor, name, err)
						}
					}()
					if flavor == "Apply" {
						k.Apply(dst, c.doff, c.ds, src, c.soff, c.ss, nil)
					} else {
						k.ApplyW(dst, c.doff, c.ds, src, c.soff, c.ss, w, c.woff, c.ws)
					}
				}()
				for i := range dst {
					if math.Float64bits(real(dst[i])) != math.Float64bits(real(before[i])) || imag(dst[i]) != 0 {
						t.Fatalf("%s %s %s: dst[%d] written", k.Name, flavor, name, i)
					}
				}
			}
		}
		// The same slices at the good shape are in range.
		dst := make([]complex128, size)
		src := complexvec.Random(size, 1)
		k.ApplyW(dst, 0, stride, src, 0, stride, src, 0, stride)
	}
}
