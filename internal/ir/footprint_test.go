package ir

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"

	"spiralfft/internal/exec"
	"spiralfft/internal/smp"
	"spiralfft/internal/spl"
)

// randomOp draws one op of the given kind with random geometry: offsets may
// fall outside the buffers, strides may be negative, WHTs may take the row
// form, and buffer ids may not exist. Some draws break an op's own
// invariants (a WHT stride below its row width); callers skip those. Half
// the codelet calls become panels, drawn from panels, a generator of their
// own so the other draws stay what they were.
func randomOp(rng, panels *rand.Rand, kind, nbufs int) Op {
	buf := func() Buf { return Buf(rng.Intn(nbufs+2) - 1) }
	off := func() int { return rng.Intn(48) - 4 }
	stride := func() int { return rng.Intn(9) - 4 }
	tw := func(n int) []complex128 {
		w := make([]complex128, n)
		for i := range w {
			w[i] = cmplx.Rect(1, rng.Float64())
		}
		return w
	}
	trees := []*exec.Tree{exec.LeafTree(2), exec.LeafTree(4), exec.LeafTree(5), exec.RadixTree(8), exec.RadixTree(12)}
	switch kind {
	case 0:
		t := trees[rng.Intn(len(trees))]
		c := CodeletCall{Dst: buf(), Src: buf(), DOff: off(), DS: stride(), SOff: off(), SS: stride(), Tree: t}
		if rng.Intn(2) == 0 {
			c.Tw = tw(t.N)
		}
		if panels.Intn(2) == 0 {
			c.V = 2 + panels.Intn(2)
			c.DS, c.DV = panelSide(panels, t.N, c.V)
			c.SS, c.SV = panelSide(panels, t.N, c.V)
		}
		return c
	case 1:
		t := trees[rng.Intn(len(trees))]
		c := CodeletGenCall{Dst: buf(), Src: buf(), DOff: off(), DS: stride(), SOff: off(), SS: stride(), Tree: t,
			TwDen: 1 + rng.Intn(64), TwRow: rng.Intn(8), TwOff: rng.Intn(8)}
		if panels.Intn(2) == 0 {
			c.V = 2 + panels.Intn(2)
			c.DS, c.DV = panelSide(panels, t.N, c.V)
			c.SS, c.SV = panelSide(panels, t.N, c.V)
		}
		return c
	case 2:
		return WHTCall{Dst: buf(), Src: buf(), DOff: off(), DS: rng.Intn(8) - 2, SOff: off(), SS: rng.Intn(8) - 2, N: 1 << (1 + rng.Intn(3)), V: rng.Intn(4)}
	case 3:
		rows, cols := 1+rng.Intn(5), 1+rng.Intn(5)
		lo := rng.Intn(cols)
		return Transpose{Dst: buf(), Src: buf(), DOff: off(), SOff: off(), Rows: rows, Cols: cols,
			Lo: lo, Hi: lo + 1 + rng.Intn(cols-lo), Tile: rng.Intn(3)}
	case 4:
		h := 1 + rng.Intn(9)
		lo := rng.Intn(h/2 + 1)
		return Untangle{Dst: buf(), Src: buf(), H: h, Lo: lo, Hi: lo + 1 + rng.Intn(h/2+1-lo), W: tw(h/2 + 1), Inverse: rng.Intn(2) == 0}
	case 5:
		return Scale{Dst: buf(), Src: buf(), Off: off(), W: tw(1 + rng.Intn(6))}
	case 6:
		idx := make([]int32, 1+rng.Intn(6))
		for i := range idx {
			idx[i] = int32(off())
		}
		return Permute{Dst: buf(), Src: buf(), Lo: off(), Idx: idx}
	case 7:
		return Copy{Dst: buf(), Src: buf(), DOff: off(), SOff: off(), N: 1 + rng.Intn(6)}
	default:
		return Generic{Dst: buf(), Src: buf(), DOff: off(), SOff: off(), F: spl.DFT{N: 1 + rng.Intn(6)}}
	}
}

// panelSide draws the point and lane strides of one side of a v-lane panel
// of n-point sub-DFTs: rows, lanes, or (one draw in five) any small pair,
// which the op's own check mostly rejects.
func panelSide(rng *rand.Rand, n, v int) (s, l int) {
	sign := func() int { return 1 - 2*rng.Intn(2) }
	switch rng.Intn(5) {
	case 0, 1:
		return sign() * (v + rng.Intn(3)), sign()
	case 2, 3:
		return sign(), sign() * (n + rng.Intn(3))
	default:
		return rng.Intn(9) - 4, rng.Intn(9) - 4
	}
}

const numOpKinds = 9

// isPanel reports whether op is a codelet call of more than one lane.
func isPanel(op Op) bool {
	switch c := op.(type) {
	case CodeletCall:
		return c.V > 1
	case CodeletGenCall:
		return c.V > 1
	}
	return false
}

// inBounds reports whether every index op's footprint visits lies in a
// buffer of prog.
func inBounds(prog *Program) bool {
	ok := true
	prog.TraceAccesses(0, 0, func(b Buf, idx int, _ bool) {
		if b < 0 || int(b) >= prog.NumBufs() || idx < 0 || idx >= prog.BufLen(b) {
			ok = false
		}
	})
	return ok
}

// Validate is the footprint's bounds check and nothing more: over random
// geometry for every op kind it accepts a one-op program exactly when each
// index the footprint visits is in bounds (given the op's own invariants). An accepted program runs on the
// executor without an index panic, writes nothing outside the footprint's
// writes, and reads nothing outside its reads.
func TestFootprintDrift(t *testing.T) {
	rng, panels := rand.New(rand.NewSource(1)), rand.New(rand.NewSource(2))
	accepted, panelsAccepted := make([]int, numOpKinds), 0
	for trial := 0; trial < 30000; trial++ {
		kind := trial % numOpKinds
		prog := &Program{N: 1 + rng.Intn(40), P: 1, Mu: 1}
		if rng.Intn(2) == 0 {
			prog.SrcN = 1 + rng.Intn(40)
		}
		if rng.Intn(2) == 0 {
			prog.DstN = 1 + rng.Intn(40)
		}
		for i := rng.Intn(3); i > 0; i-- {
			prog.Temps = append(prog.Temps, 1+rng.Intn(40))
		}
		op := randomOp(rng, panels, kind, prog.NumBufs())
		if op.check() != nil {
			continue
		}
		// Moved is Footprint's inverse: the op's own footprint gives the
		// op back, and a footprint with other buffers is the op's on them.
		f := op.Footprint()
		if moved := op.Moved(f); !reflect.DeepEqual(moved, op) {
			t.Fatalf("%s moved onto its own footprint became %s", op, moved)
		}
		f.Write.Buf, f.Read.Buf = f.Read.Buf, TempBuf(7)
		if got := op.Moved(f).Footprint(); !reflect.DeepEqual(got, f) {
			t.Fatalf("%s moved onto %+v has footprint %+v", op, f, got)
		}
		prog.Nodes = []Node{&Region{Name: "r", Workers: [][]Op{{op}}}}
		err := prog.Validate()
		if want := inBounds(prog); (err == nil) != want {
			t.Fatalf("%s in %v: Validate error %v, footprint in bounds %v", op, prog.Temps, err, want)
		}
		if err != nil {
			continue
		}
		accepted[kind]++
		if isPanel(op) {
			panelsAccepted++
		}
		runWithinFootprint(t, prog, op)
	}
	for kind, n := range accepted {
		if n < 20 {
			t.Errorf("op kind %d: only %d accepted programs drawn", kind, n)
		}
	}
	if panelsAccepted < 20 {
		t.Errorf("only %d accepted panel calls drawn", panelsAccepted)
	}
}

// runWithinFootprint runs the one-op program on src and dst buffers whose
// elements outside the footprint are marked: NaN in src outside the reads,
// a sentinel in dst outside the writes.
func runWithinFootprint(t *testing.T, prog *Program, op Op) {
	t.Helper()
	f := op.Footprint()
	reads, writes := map[int]bool{}, map[int]bool{}
	f.Read.each(func(i int) { reads[i] = true })
	f.Write.each(func(i int) { writes[i] = true })
	src := make([]complex128, prog.BufLen(BufSrc))
	dst := make([]complex128, prog.BufLen(BufDst))
	sentinel := complex(-7, 7)
	for i := range src {
		src[i] = complex(float64(i+1), 0.5)
		if f.Read.Buf == BufSrc && !reads[i] {
			src[i] = cmplx.NaN()
		}
	}
	for i := range dst {
		dst[i] = sentinel
	}
	e, err := NewExecutor(prog, nil)
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	func() {
		defer func() {
			if r := recover(); r != nil {
				t.Fatalf("%s: accepted program panicked: %v", op, r)
			}
		}()
		e.Transform(dst, src)
	}()
	if f.Write.Buf != BufDst {
		return
	}
	for i, v := range dst {
		switch {
		case !writes[i] && v != sentinel:
			t.Fatalf("%s: wrote dst[%d] outside its footprint", op, i)
		case writes[i] && f.Read.Buf == BufSrc && (math.IsNaN(real(v)) || math.IsNaN(imag(v))):
			t.Fatalf("%s: dst[%d] depends on a src element outside its footprint", op, i)
		}
	}
}

// Fold renumbers temps through the footprint, so an op kind no fold rewrites
// (here an Untangle reading a temp that moves down when an unused temp is
// dropped) is renumbered with the rest; the folded program keeps the
// buffer lengths and computes the same spectrum.
func TestFoldRenumbersEveryOpKind(t *testing.T) {
	h := 8
	prog := &Program{Name: "packed", N: h + 1, SrcN: h, P: 2, Mu: 1, Temps: []int{3, h}}
	cp := &Region{Name: "copy", Workers: [][]Op{
		{Copy{Dst: TempBuf(1), Src: BufSrc, N: h / 2}},
		{Copy{Dst: TempBuf(1), Src: BufSrc, DOff: h / 2, SOff: h / 2, N: h / 2}},
	}}
	prog.Nodes = []Node{cp, Barrier{}, untangleRegion(h, 2, BufDst, TempBuf(1), false)}
	folded, err := Fold(prog)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(folded.Temps) != fmt.Sprint([]int{h}) {
		t.Fatalf("folded temps %v, want [%d]", folded.Temps, h)
	}
	x := make([]complex128, h)
	for i := range x {
		x[i] = complex(float64(i), float64(h-i))
	}
	pool := smp.NewPool(2)
	defer pool.Close()
	run := func(p *Program) []complex128 {
		e, err := NewExecutor(p, pool)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]complex128, h+1)
		e.Transform(out, x)
		return out
	}
	want, got := run(prog), run(folded)
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("bin %d: folded %v, unfolded %v", i, got[i], want[i])
		}
	}
}
