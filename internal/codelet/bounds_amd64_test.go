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
// (n-1)·stride wraps around to an index inside the slice. The pair entry
// points check both lanes: lane 1's runs, through its lane offsets, are
// checked as lane 0's before either lane's assembly runs.
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

		// The pair entry points check lane 1's runs as lane 0's: lane 0
		// fits at offset 1, and a lane offset runs lane 1 one past the end,
		// below 0, or past math.MaxInt, where the offset wraps.
		for side, short := range map[string]bool{"dst": false, "src": false, "w": false, "w1 slice": true} {
			for name, l := range map[string]int{
				"lane offset one past the end":  1,
				"lane offset below 0":           -2,
				"lane offset that wraps around": math.MaxInt,
			} {
				if short && l != 1 {
					continue
				}
				dl, sl, wl := 0, 0, 0
				switch side {
				case "dst":
					dl = l
				case "src":
					sl = l
				case "w":
					wl = l
				}
				for _, flavor := range []string{"Apply2", "Apply2 with w", "ApplyW2"} {
					if (side == "w" && flavor != "ApplyW2") || (short && flavor != "Apply2 with w") {
						continue
					}
					src := complexvec.Random(size+1, uint64(n))
					w := complexvec.Random(size+1, uint64(n)+1)
					w1 := w[1:]
					if short {
						w1 = w[:n-1]
					}
					dst := make([]complex128, size+1)
					for i := range dst {
						dst[i] = complex(math.NaN(), 0)
					}
					func() {
						defer func() {
							err, _ := recover().(runtime.Error)
							if err == nil || !strings.Contains(err.Error(), "index out of range") {
								t.Errorf("%s %s %s %s: recovered %v, want a runtime bounds error", k.Name, flavor, side, name, err)
							}
						}()
						switch flavor {
						case "Apply2":
							k.Apply2(dst, 1, stride, dl, src, 1, stride, sl, nil, nil)
						case "Apply2 with w":
							k.Apply2(dst, 1, stride, dl, src, 1, stride, sl, w, w1)
						default:
							k.ApplyW2(dst, 1, stride, dl, src, 1, stride, sl, w, 1, stride, wl)
						}
					}()
					for i := range dst {
						if !math.IsNaN(real(dst[i])) || imag(dst[i]) != 0 {
							t.Fatalf("%s %s %s %s: dst[%d] written", k.Name, flavor, side, name, i)
						}
					}
				}
			}
		}
	}
}

// WHTPass checks a pass's first and last index before its assembly runs.
// Every bad pass must panic with a runtime bounds error and leave dst as it
// was: an offset, block stride, leg stride or leg width one past the end,
// dst or src one element short, a negative offset, block stride or leg
// stride, no blocks, and a block or leg stride whose multiple wraps around
// to an index inside the slices.
func TestWHTPassBoundsChecked(t *testing.T) {
	for _, r := range []int{2, 4, 8} {
		good := whtShape{0, 4, 2 * r, 2, 2}
		size := good.size(r)
		legWrap := math.MaxInt // r = 2: off + leg overflows
		if r > 2 {
			legWrap = int(inverseMod(uint64(r-1)) * 2) // (r-1)·leg ≡ 2
		}
		cases := map[string]whtShape{
			"offset one past the end":       {1, 4, 2 * r, 2, 2},
			"block stride one past the end": {0, 4, 2*r + 1, 2, 2},
			"leg stride one past the end":   {0, 4, 2 * r, 3, 2},
			"leg width one past the end":    {0, 4, 2 * r, 2, 3},
			"negative offset":               {-1, 4, 2 * r, 2, 2},
			"negative block stride":         {1, 4, -1, 0, 1},     // block 3 at -2
			"negative leg stride":           {r - 2, 1, 0, -1, 1}, // leg r-1 at -1
			"no blocks":                     {0, 0, 2 * r, 2, 2},
			"block stride that wraps":       {0, 4, int(inverseMod(3) * 2), 2, 2}, // 3·bs ≡ 2
			"leg stride that wraps":         {0, 1, 0, legWrap, 1},
		}
		short := map[string]whtShape{"dst one short": good, "src one short": good}
		for name, g := range cases {
			short[name] = g
		}
		for name, g := range short {
			for _, s := range []float64{1, 0.5} {
				src := complexvec.Random(size, uint64(r))
				dst := make([]complex128, size)
				for i := range dst {
					dst[i] = complex(math.NaN(), 0)
				}
				d, sr := dst, src
				switch name {
				case "dst one short":
					d = dst[:size-1]
				case "src one short":
					sr = src[:size-1]
				}
				func() {
					defer func() {
						err, _ := recover().(runtime.Error)
						if err == nil || !strings.Contains(err.Error(), "index out of range") {
							t.Errorf("r=%d s=%g %s: recovered %v, want a runtime bounds error", r, s, name, err)
						}
					}()
					WHTPass(d, sr, r, g.off, g.b, g.bs, g.leg, g.w, s)
				}()
				for i := range dst {
					if !math.IsNaN(real(dst[i])) || imag(dst[i]) != 0 {
						t.Fatalf("r=%d s=%g %s: dst[%d] written", r, s, name, i)
					}
				}
			}
		}
		// The same slices at the good shape are in range.
		dst, src := make([]complex128, size), complexvec.Random(size, 1)
		WHTPass(dst, src, r, good.off, good.b, good.bs, good.leg, good.w, 1)
	}
}
