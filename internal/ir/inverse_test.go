package ir

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"testing"

	"spiralfft/internal/exec"
	"spiralfft/internal/smp"
)

// naiveIDFT is the unitary-scaled inverse DFT by definition:
// y[k] = (1/n)·Σ_j x[j]·e^{+2πi·jk/n}.
func naiveIDFT(x []complex128) []complex128 {
	n := len(x)
	y := make([]complex128, n)
	for k := range y {
		var s complex128
		for j, v := range x {
			s += v * cmplx.Exp(complex(0, 2*math.Pi*float64((j*k)%n)/float64(n)))
		}
		y[k] = s / complex(float64(n), 0)
	}
	return y
}

// naiveDFT is the forward DFT by definition.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	y := make([]complex128, n)
	for k := range y {
		var s complex128
		for j, v := range x {
			s += v * cmplx.Exp(complex(0, -2*math.Pi*float64((j*k)%n)/float64(n)))
		}
		y[k] = s
	}
	return y
}

// runProgram executes prog on a pool of its width, out of place and, when
// inPlace is set, also in place (dst == src), and returns both outputs.
func runProgram(t *testing.T, prog *Program, src []complex128, inPlace bool) (out, in []complex128) {
	t.Helper()
	var backend smp.Backend
	if prog.P > 1 {
		backend = smp.NewPool(prog.P)
		defer backend.Close()
	}
	e, err := NewExecutor(prog, backend)
	if err != nil {
		t.Fatalf("%s: %v", prog.Name, err)
	}
	out = make([]complex128, prog.BufLen(BufDst))
	e.Transform(out, src)
	if inPlace {
		in = append([]complex128(nil), src...)
		e.Transform(in, in)
	}
	return out, in
}

// Every inverse lowering computes the unitary inverse DFT: checked against
// the definition out of place and in place, at an error bound that grows
// with log2 n.
func TestInverseLoweringsMatchNaiveIDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	type tc struct {
		name string
		prog func() (*Program, error)
		// alias, when non-nil, lowers the program the in-place check runs:
		// the four-step program needs dst apart from src, its InPlace twin
		// allows dst == src.
		alias func() (*Program, error)
	}
	ct := func(n, m, p int, sched Schedule) func() (*Program, error) {
		return func() (*Program, error) {
			return LowerCT(n, m, CTConfig{P: p, Mu: 4, Schedule: sched, Inverse: true})
		}
	}
	fs := func(n, n1, p int, inPlace bool) func() (*Program, error) {
		return func() (*Program, error) {
			return LowerFourStep(n, n1, FourStepConfig{P: p, Mu: 4, Inverse: true, InPlace: inPlace})
		}
	}
	tree := func(t *exec.Tree) func() (*Program, error) {
		return func() (*Program, error) { return LowerTreeInverse(t) }
	}
	cases := []tc{
		{"tree leaf 1", tree(exec.LeafTree(1)), nil},
		{"tree leaf 8", tree(exec.LeafTree(8)), nil},
		{"tree leaf 13 (naive)", tree(exec.LeafTree(13)), nil},
		{"tree leaf 1009 (bluestein)", tree(exec.LeafTree(1009)), nil},
		{"tree radix 1024", tree(exec.RadixTree(1024)), nil},
		{"tree composite 360", tree(exec.SplitTree(exec.LeafTree(12), exec.SplitTree(exec.LeafTree(5), exec.LeafTree(6)))), nil},
		{"ct 64=8·8 p=1", ct(64, 8, 1, ScheduleBlock), nil},
		{"ct 1024=32·32 p=2", ct(1024, 32, 2, ScheduleBlock), nil},
		{"ct 4096=64·64 p=2", ct(4096, 64, 2, ScheduleBlock), nil},
		{"ct 4096=128·32 p=4", ct(4096, 128, 4, ScheduleBlock), nil},
		{"ct 256=16·16 p=2 cyclic", ct(256, 16, 2, ScheduleCyclic), nil},
		{"four-step 256=16·16 p=1", fs(256, 16, 1, false), fs(256, 16, 1, true)},
		{"four-step 1024=32·32 p=2", fs(1024, 32, 2, false), fs(1024, 32, 2, true)},
		{"four-step 4096=64·64 p=2", fs(4096, 64, 2, false), fs(4096, 64, 2, true)},
		{"four-step 2048=128·16 p=2", fs(2048, 128, 2, false), fs(2048, 128, 2, true)},
		{"four-step 360=60·6 p=1 (ragged row panel)", fs(360, 60, 1, false), fs(360, 60, 1, true)},
		{"four-step 360=90·4 p=1 (ragged column panel)", fs(360, 90, 1, false), fs(360, 90, 1, true)},
		{"batch 16×4 p=2", func() (*Program, error) { return LowerBatchInverse(exec.RadixTree(16), 4, 2) }, nil},
		{"batch 12×3 p=1", func() (*Program, error) { return LowerBatchInverse(exec.LeafTree(12), 3, 1) }, nil},
	}
	for _, c := range cases {
		prog, err := c.prog()
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		n := prog.N
		src := randVec(n, rng)
		want := naiveIDFT(src)
		if prog.Name == "batch-inverse" {
			sig := prog.Nodes[0].(*Region).Workers[0][0].(CodeletCall).Tree.N
			want = want[:0]
			for s := 0; s < n; s += sig {
				want = append(want, naiveIDFT(src[s:s+sig])...)
			}
		}
		out, in := runProgram(t, prog, src, c.alias == nil)
		if c.alias != nil {
			alias, err := c.alias()
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			_, in = runProgram(t, alias, src, true)
		}
		bound := 4 * math.Log2(float64(n)+1) * 0x1p-52
		if e := relError(want, out); e > bound {
			t.Errorf("%s: rel error %.3g > %.3g", c.name, e, bound)
		}
		if e := relError(want, in); e > bound {
			t.Errorf("%s in place: rel error %.3g > %.3g", c.name, e, bound)
		}
	}
}

// The 2D inverse puts J_cols in the row stage and J_rows in the column
// stage; the column stage runs in place on dst.
func TestLower2DInverseMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for _, c := range []struct{ rows, cols, p int }{{8, 16, 2}, {16, 8, 1}, {1, 32, 1}, {12, 5, 1}} {
		prog, err := Lower2DInverse(c.rows, c.cols, c.p, exec.RadixTree(c.cols), exec.RadixTree(c.rows))
		if err != nil {
			t.Fatal(err)
		}
		src := randVec(c.rows*c.cols, rng)
		want := append([]complex128(nil), src...)
		for r := 0; r < c.rows; r++ {
			copy(want[r*c.cols:], naiveIDFT(want[r*c.cols:(r+1)*c.cols]))
		}
		col := make([]complex128, c.rows)
		for j := 0; j < c.cols; j++ {
			for r := range col {
				col[r] = want[r*c.cols+j]
			}
			for r, v := range naiveIDFT(col) {
				want[r*c.cols+j] = v
			}
		}
		out, in := runProgram(t, prog, src, true)
		label := fmt.Sprintf("%d×%d p=%d", c.rows, c.cols, c.p)
		if e := relError(want, out); e > 1e-14 {
			t.Errorf("%s: rel error %.3g", label, e)
		}
		if e := relError(want, in); e > 1e-14 {
			t.Errorf("%s in place: rel error %.3g", label, e)
		}
	}
}

// shape lists a program's node kinds and, per region, each worker's op
// count: what an inverse program must share with its forward program.
func shape(p *Program) string {
	s := fmt.Sprintf("p=%d temps=%v:", p.P, p.Temps)
	for _, nd := range p.Nodes {
		switch r := nd.(type) {
		case Barrier:
			s += " |"
		case *Region:
			s += " " + r.Name + "["
			for _, ops := range r.Workers {
				s += fmt.Sprintf("%d,", len(ops))
			}
			s += "]"
		}
	}
	return s
}

// The inverse folds into the forward stages: same regions, barriers, temps
// and per-worker op counts, no added pass.
func TestInverseProgramsMirrorForwardShape(t *testing.T) {
	pairs := []struct {
		name     string
		fwd, inv func() (*Program, error)
	}{
		{"leaf tree", func() (*Program, error) { return LowerTree(exec.LeafTree(64)) },
			func() (*Program, error) { return LowerTreeInverse(exec.LeafTree(64)) }},
		{"composite tree as formula (14) on one worker",
			func() (*Program, error) { return LowerCT(4096, 64, CTConfig{P: 1, Mu: 1}) },
			func() (*Program, error) {
				return LowerTreeInverse(exec.SplitTree(exec.LeafTree(64), exec.LeafTree(64)))
			}},
		{"ct", func() (*Program, error) { return LowerCT(4096, 64, CTConfig{P: 2}) },
			func() (*Program, error) { return LowerCT(4096, 64, CTConfig{P: 2, Inverse: true}) }},
		{"four-step", func() (*Program, error) { return LowerFourStep(1<<16, 256, FourStepConfig{P: 2}) },
			func() (*Program, error) { return LowerFourStep(1<<16, 256, FourStepConfig{P: 2, Inverse: true}) }},
		{"batch", func() (*Program, error) { return LowerBatch(exec.RadixTree(64), 8, 2) },
			func() (*Program, error) { return LowerBatchInverse(exec.RadixTree(64), 8, 2) }},
		{"2d", func() (*Program, error) { return Lower2D(32, 64, 2, exec.RadixTree(64), exec.RadixTree(32)) },
			func() (*Program, error) { return Lower2DInverse(32, 64, 2, exec.RadixTree(64), exec.RadixTree(32)) }},
		{"wht", func() (*Program, error) { return LowerWHT(4096, 2, 4) },
			func() (*Program, error) { return LowerWHTInverse(4096, 2, 4) }},
	}
	for _, c := range pairs {
		f, err := c.fwd()
		if err != nil {
			t.Fatal(err)
		}
		i, err := c.inv()
		if err != nil {
			t.Fatal(err)
		}
		if shape(f) != shape(i) {
			t.Errorf("%s: inverse shape %s, forward %s", c.name, shape(i), shape(f))
		}
	}
}

// The inverse WHT is the forward WHT scaled by 1/n in its last stage: the
// power-of-two scale is exact, so the outputs agree bit for bit.
func TestLowerWHTInverseIsScaledForward(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for _, c := range []struct{ n, p int }{{2, 1}, {64, 1}, {4096, 2}, {1 << 11, 2}} {
		fwd, err := LowerWHT(c.n, c.p, 4)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := LowerWHTInverse(c.n, c.p, 4)
		if err != nil {
			t.Fatal(err)
		}
		src := randVec(c.n, rng)
		want, _ := runProgram(t, fwd, src, false)
		for i := range want {
			want[i] *= complex(1/float64(c.n), 0)
		}
		got, in := runProgram(t, inv, src, true)
		requireIdentical(t, want, got, fmt.Sprintf("inverse wht n=%d p=%d", c.n, c.p))
		requireIdentical(t, want, in, fmt.Sprintf("inverse wht n=%d p=%d in place", c.n, c.p))
	}
}

// The real-input programs: RealForward around a DFT_h program gives the
// half spectrum of the 2h real samples it reads as h packed points, and
// RealInverse around the inverse DFT_h program gives them back.
func TestRealProgramsMatchNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(24))
	for _, c := range []struct{ h, p int }{{1, 1}, {3, 1}, {8, 1}, {512, 2}, {2048, 2}, {2048, 1}} {
		var fwdHalf, invHalf *Program
		var err error
		if m, ok := exec.SplitFor(c.h, c.p, 4); ok && c.p > 1 {
			fwdHalf, err = LowerCT(c.h, m, CTConfig{P: c.p})
			if err == nil {
				invHalf, err = LowerCT(c.h, m, CTConfig{P: c.p, Inverse: true})
			}
		} else {
			fwdHalf, err = LowerTree(exec.RadixTree(c.h))
			if err == nil {
				invHalf, err = LowerTreeInverse(exec.RadixTree(c.h))
			}
		}
		if err != nil {
			t.Fatal(err)
		}
		fwd, err := RealForward(fwdHalf)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := RealInverse(invHalf)
		if err != nil {
			t.Fatal(err)
		}
		if fwd.P != c.p || inv.P != c.p {
			t.Fatalf("h=%d: programs on %d/%d workers, want %d", c.h, fwd.P, inv.P, c.p)
		}
		n := 2 * c.h
		x := make([]complex128, n) // the real signal, as complex for the reference
		packed := make([]complex128, c.h)
		for j := range packed {
			a, b := rng.Float64()*2-1, rng.Float64()*2-1
			x[2*j], x[2*j+1] = complex(a, 0), complex(b, 0)
			packed[j] = complex(a, b)
		}
		want := naiveDFT(x)[:c.h+1]
		spec, _ := runProgram(t, fwd, packed, false)
		bound := 8 * math.Log2(float64(n)+1) * 0x1p-52
		if e := relError(want, spec); e > bound {
			t.Errorf("h=%d p=%d forward: rel error %.3g > %.3g", c.h, c.p, e, bound)
		}
		back, _ := runProgram(t, inv, spec, false)
		if e := relError(packed, back); e > bound {
			t.Errorf("h=%d p=%d round trip: rel error %.3g > %.3g", c.h, c.p, e, bound)
		}
	}
}

// A real program is its DFT_h program plus exactly one region: the
// untangle after the DFT's last region, or the retangle before the
// inverse's first.
func TestRealProgramsAddOneRegion(t *testing.T) {
	half, err := LowerCT(2048, 32, CTConfig{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	fwd, err := RealForward(half)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := shape(fwd), shape(half)+" | untangle[1,1,]"; got != want {
		t.Errorf("forward shape %s, want %s", got, want)
	}
	if fwd.BufLen(BufSrc) != 2048 || fwd.BufLen(BufDst) != 2049 {
		t.Errorf("forward lengths src %d dst %d", fwd.BufLen(BufSrc), fwd.BufLen(BufDst))
	}
	invHalf, err := LowerCT(2048, 32, CTConfig{P: 2, Inverse: true})
	if err != nil {
		t.Fatal(err)
	}
	inv, err := RealInverse(invHalf)
	if err != nil {
		t.Fatal(err)
	}
	if inv.BufLen(BufSrc) != 2049 || inv.BufLen(BufDst) != 2048 {
		t.Errorf("inverse lengths src %d dst %d", inv.BufLen(BufSrc), inv.BufLen(BufDst))
	}
	if _, err := RealForward(fwd); err == nil {
		t.Error("RealForward accepted a real program")
	}
}

// The trace of an untangle region touches every packed point and every
// spectrum bin exactly once across the workers, on the sides the executor
// reads and writes.
func TestUntangleTraceCoversEachElementOnce(t *testing.T) {
	for _, inverse := range []bool{false, true} {
		for _, h := range []int{1, 2, 3, 8, 9} {
			prog := &Program{N: h, P: 2, Mu: 1, Nodes: []Node{untangleRegion(h, 2, BufDst, BufSrc, inverse)}}
			if inverse {
				prog.SrcN = h + 1
			} else {
				prog.DstN = h + 1
			}
			if err := prog.Validate(); err != nil {
				t.Fatal(err)
			}
			counts := map[bool]map[int]int{false: {}, true: {}}
			for w := 0; w < prog.P; w++ {
				prog.TraceAccesses(0, w, func(b Buf, idx int, write bool) { counts[write][idx]++ })
			}
			for write, b := range map[bool]Buf{false: BufSrc, true: BufDst} {
				if len(counts[write]) != prog.BufLen(b) {
					t.Errorf("h=%d inverse=%v: %d distinct %s elements traced, want %d", h, inverse, len(counts[write]), b, prog.BufLen(b))
				}
				for idx, c := range counts[write] {
					if c != 1 || idx < 0 || idx >= prog.BufLen(b) {
						t.Errorf("h=%d inverse=%v: %s[%d] traced %d times", h, inverse, b, idx, c)
					}
				}
			}
		}
	}
}
