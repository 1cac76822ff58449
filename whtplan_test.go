package spiralfft

import (
	"reflect"
	"regexp"
	"strconv"
	"strings"
	"testing"

	"spiralfft/internal/complexvec"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
)

// refWHT from the Hadamard matrix definition.
func refWHT(x []complex128) []complex128 {
	n := len(x)
	y := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			bits := k & j
			c := 0
			for ; bits != 0; bits &= bits - 1 {
				c++
			}
			if c%2 == 0 {
				y[k] += x[j]
			} else {
				y[k] -= x[j]
			}
		}
	}
	return y
}

func TestWHTPlanMatchesDefinition(t *testing.T) {
	for _, opts := range []*Options{nil, {Workers: 2}} {
		for _, n := range []int{2, 16, 256, 1024} {
			p, err := NewWHTPlan(n, opts)
			if err != nil {
				t.Fatalf("n=%d: %v", n, err)
			}
			x := complexvec.Random(n, uint64(n))
			got := make([]complex128, n)
			if err := p.Transform(got, x); err != nil {
				t.Fatal(err)
			}
			if e := complexvec.RelError(got, refWHT(x)); e > 1e-12 {
				t.Errorf("opts %+v n=%d: rel error %g", opts, n, e)
			}
			// Inverse roundtrip.
			back := make([]complex128, n)
			if err := p.Inverse(back, got); err != nil {
				t.Fatal(err)
			}
			if e := complexvec.RelError(back, x); e > 1e-12 {
				t.Errorf("opts %+v n=%d: roundtrip error %g", opts, n, e)
			}
			p.Close()
		}
	}
}

func TestWHTPlanParallelAndFormula(t *testing.T) {
	p, err := NewWHTPlan(1024, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.IsParallel() || p.N() != 1024 {
		t.Errorf("parallel=%v n=%d", p.IsParallel(), p.N())
	}
	f := p.Formula()
	for _, want := range []string{"WHT_", "⊗∥", "⊗̄"} {
		if !strings.Contains(f, want) {
			t.Errorf("Formula %q missing %q", f, want)
		}
	}
	if d := p.Derivation(); !strings.HasPrefix(d, "    [WHT_1024]_smp(2,4)\n") || !strings.HasSuffix(d, "= "+f+"\n") {
		t.Errorf("Derivation does not derive the formula from WHT_1024:\n%s", d)
	}
	// Sequential formula is the bare transform.
	s, err := NewWHTPlan(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if s.Formula() != "WHT_16" || s.Derivation() != "" {
		t.Errorf("sequential formula %q, derivation %q", s.Formula(), s.Derivation())
	}
}

func TestWHTPlanErrors(t *testing.T) {
	for _, n := range []int{0, 1, 3, 100} {
		if _, err := NewWHTPlan(n, nil); err == nil {
			t.Errorf("accepted n=%d", n)
		}
	}
	p, err := NewWHTPlan(16, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Transform(make([]complex128, 8), make([]complex128, 16)); err == nil {
		t.Error("accepted short dst")
	}
}

func TestWHTPlanSmallFallsBackSequential(t *testing.T) {
	p, err := NewWHTPlan(16, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.IsParallel() {
		t.Error("small WHT should be sequential")
	}
}

// Formula is derived with the split the program runs: the WHT leaves it
// names are exactly the sizes of the program's WHT calls, WHT_{n/p} in
// stage 1 and WHT_p in stage 2, or WHT_n alone where ir.WHTSplit keeps the
// plan sequential (n below (pµ)²).
func TestWHTPlanFormulaNamesProgramLeaves(t *testing.T) {
	leaf := regexp.MustCompile(`WHT_(\d+)`)
	for k := 6; k <= 16; k++ {
		n := 1 << uint(k)
		for _, workers := range []int{2, 4} {
			p, err := NewWHTPlan(n, &Options{Workers: workers})
			if err != nil {
				t.Fatal(err)
			}
			_, split := ir.WHTSplit(n, workers, 4)
			if p.IsParallel() != split {
				t.Fatalf("n=%d p=%d: parallel=%v, want %v", n, workers, p.IsParallel(), split)
			}
			prog := map[int]bool{}
			for _, r := range p.Program().Regions() {
				for _, ops := range r.Workers {
					for _, op := range ops {
						if c, ok := op.(ir.WHTCall); ok {
							prog[c.N] = true
						}
					}
				}
			}
			formula := map[int]bool{}
			for _, m := range leaf.FindAllStringSubmatch(p.Formula(), -1) {
				v, _ := strconv.Atoi(m[1])
				formula[v] = true
			}
			want := map[int]bool{n: true}
			if split {
				want = map[int]bool{n / workers: true, workers: true}
			}
			if !reflect.DeepEqual(prog, want) || !reflect.DeepEqual(formula, want) {
				t.Errorf("n=%d p=%d: program WHT sizes %v, formula %v (%s), want %v",
					n, workers, prog, formula, p.Formula(), want)
			}
			p.Close()
		}
	}
}

// At n=4096 on two workers the WHT program is two regions with one op per
// worker, one barrier and no temp, and its forward and inverse outputs are
// exec.WHTInPlace's bit for bit, out of place and in place.
func TestWHTPlanProgramShape(t *testing.T) {
	const n = 4096
	p, err := NewWHTPlan(n, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if got, want := programShape(p.Program()), "n=4096 p=2 temps=[]: stage1[1,1,] | stage2[1,1,]"; got != want {
		t.Errorf("program shape %s, want %s", got, want)
	}
	x := complexvec.Random(n, 7)
	for _, c := range []struct {
		name  string
		run   func(dst, src []complex128) error
		scale float64
	}{{"forward", p.Transform, 1}, {"inverse", p.Inverse, 1 / float64(n)}} {
		want := complexvec.Clone(x)
		exec.WHTInPlaceScaled(want, c.scale)
		got := make([]complex128, n)
		if err := c.run(got, x); err != nil {
			t.Fatal(err)
		}
		in := complexvec.Clone(x)
		if err := c.run(in, in); err != nil {
			t.Fatal(err)
		}
		if complexvec.MaxError(got, want) != 0 || complexvec.MaxError(in, want) != 0 {
			t.Errorf("%s: differs from WHTInPlaceScaled", c.name)
		}
	}
}
