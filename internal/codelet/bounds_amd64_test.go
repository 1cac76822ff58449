//go:build !purego

package codelet

import (
	"math"
	"os"
	"os/exec"
	"path/filepath"
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
// (n-1)·stride wraps around to an index inside the slice. The loop entry
// checks every lane: the first and the last lane's runs, through the lane
// offsets, are checked before any lane's assembly runs.
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

		// The loop entry checks the first and the last lane's runs: four
		// lanes one element apart at stride 4 fill a buffer of 4n, and a
		// bad offset or lane step runs the last lane or the first one past
		// the end or below 0, or makes 3·l wrap around to 1; no lanes at
		// all is a bad call too.
		const m, ls = 4, 4
		type lanes struct{ off, l, m int }
		for name, bad := range map[string]lanes{
			"last lane one past the end":  {1, 1, m},
			"first lane one past the end": {4, -1, m},
			"negative offset":             {-1, 1, m},
			"last lane below 0":           {0, -1, m},
			"lane step that wraps around": {0, int(inverseMod(m - 1)), m},
			"no lanes":                    {0, 1, 0},
		} {
			for _, side := range []string{"dst", "src", "w"} {
				for _, scaled := range []bool{false, true} {
					if side == "w" && !scaled {
						continue
					}
					good := lanes{0, 1, bad.m}
					d, sr, wl := good, good, good
					switch side {
					case "dst":
						d = bad
					case "src":
						sr = bad
					default:
						wl = bad
					}
					src := complexvec.Random(ls*n, uint64(n))
					var w []complex128
					if scaled {
						w = complexvec.Random(ls*n, uint64(n)+1)
					}
					dst := make([]complex128, ls*n)
					for i := range dst {
						dst[i] = complex(math.NaN(), 0)
					}
					func() {
						defer func() {
							err, _ := recover().(runtime.Error)
							if err == nil || !strings.Contains(err.Error(), "index out of range") {
								t.Errorf("%s Loop %s %s scaled=%v: recovered %v, want a runtime bounds error", k.Name, side, name, scaled, err)
							}
						}()
						k.Loop(dst, d.off, ls, d.l, src, sr.off, ls, sr.l, w, wl.off, ls, wl.l, bad.m)
					}()
					for i := range dst {
						if !math.IsNaN(real(dst[i])) || imag(dst[i]) != 0 {
							t.Fatalf("%s Loop %s %s scaled=%v: dst[%d] written", k.Name, side, name, scaled, i)
						}
					}
				}
			}
		}
		// The same slices at the good shape are in range.
		dst = make([]complex128, ls*n)
		src = complexvec.Random(ls*n, 1)
		k.Loop(dst, 0, ls, 1, src, 0, ls, 1, src, 0, ls, 1, m)
	}
}

// The wrappers check their runs with a multiply and no division: each
// term's bound comes from bits.Mul64, so no wrapper compiles to an IDIV,
// as the per-call srLanes of the two-lane entry points did. The test
// builds the package and disassembles the wrappers and their helpers.
func TestLoopWrappersDivideNothing(t *testing.T) {
	gobin := filepath.Join(runtime.GOROOT(), "bin", "go")
	if _, err := os.Stat(gobin); err != nil {
		t.Skip("no go tool to build and disassemble with")
	}
	archive := filepath.Join(t.TempDir(), "codelet.a")
	if out, err := exec.Command(gobin, "build", "-o", archive, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v: %s", err, out)
	}
	out, err := exec.Command(gobin, "tool", "objdump", "-s", `codelet\.(sr[0-9]+[nw]?|sr[0-9]+Loop|srRun|srLanes|srTerm)$`, archive).CombinedOutput()
	if err != nil {
		t.Fatalf("objdump: %v: %s", err, out)
	}
	text := string(out)
	for _, fn := range []string{"srRun", "srLanes", "srTerm", "sr8Loop", "sr64Loop", "sr64n", "sr64w"} {
		if !strings.Contains(text, "codelet."+fn+"(SB)") {
			t.Errorf("objdump does not list %s", fn)
		}
	}
	if !strings.Contains(text, "MULQ") {
		t.Error("no wrapper multiplies: the overflow checks are gone")
	}
	for _, line := range strings.Split(text, "\n") {
		if strings.Contains(line, "DIVQ") {
			t.Errorf("a bounds check divides: %s", strings.TrimSpace(line))
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
