package ir

import (
	"fmt"
	"math"
	"math/cmplx"
	"math/rand"
	"reflect"
	"testing"

	"spiralfft/internal/exec"
	"spiralfft/internal/rewrite"
	"spiralfft/internal/smp"
	"spiralfft/internal/spl"
)

// The formula path: FromFormula renders a fully optimized formula stage by
// stage; Fold performs the paper's loop merging as IR→IR passes. For formula
// (14) the folded program must collapse to the production schedule — two
// compute regions, one barrier — and both raw and folded programs must
// compute the same transform as the formula's reference semantics.

func applyRef(f spl.Formula, src []complex128) []complex128 {
	dst := make([]complex128, f.Size())
	f.Apply(dst, src)
	return dst
}

func maxDiff(a, b []complex128) float64 {
	m := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

func TestFromFormulaMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	const n, m, p, mu = 64, 8, 2, 2
	f, _, err := rewrite.DeriveMulticoreCT(n, m, p, mu)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := FromFormula(f, p, mu)
	if err != nil {
		t.Fatal(err)
	}
	if err := prog.Validate(); err != nil {
		t.Fatalf("raw program invalid: %v", err)
	}
	backend := smp.NewPool(p)
	defer backend.Close()
	e, err := NewExecutor(prog, backend)
	if err != nil {
		t.Fatal(err)
	}
	src := randVec(n, rng)
	want := applyRef(f, src)
	got := make([]complex128, n)
	e.Transform(got, src)
	if d := maxDiff(want, got); d > 1e-9 {
		t.Fatalf("raw formula program deviates from reference by %g", d)
	}
}

func TestFoldCollapsesFormula14ToProductionSchedule(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	cases := []struct{ n, m, p, mu int }{
		{64, 8, 2, 2},
		{256, 16, 2, 4},
		{1024, 32, 4, 4},
	}
	for _, tc := range cases {
		f, _, err := rewrite.DeriveMulticoreCT(tc.n, tc.m, tc.p, tc.mu)
		if err != nil {
			t.Fatalf("derive n=%d: %v", tc.n, err)
		}
		raw, err := FromFormula(f, tc.p, tc.mu)
		if err != nil {
			t.Fatal(err)
		}
		folded, err := Fold(raw)
		if err != nil {
			t.Fatal(err)
		}
		regions := folded.Regions()
		if len(regions) != 2 {
			t.Fatalf("n=%d: folded to %d regions, want 2 (the production two-stage schedule):\n%s",
				tc.n, len(regions), folded)
		}
		if got := len(folded.Nodes); got != 3 { // region, barrier, region
			t.Fatalf("n=%d: folded program has %d nodes, want 3", tc.n, got)
		}
		if len(folded.Temps) != 1 {
			t.Fatalf("n=%d: folded program keeps %d temps, want 1", tc.n, len(folded.Temps))
		}
		// Every op must be a typed codelet call — permutations live in the
		// strides, the twiddle diagonal in stage-2 Tw vectors.
		for ri, r := range regions {
			for w, ops := range r.Workers {
				if len(ops) == 0 {
					t.Fatalf("n=%d: region %d worker %d has no work (imbalance)", tc.n, ri, w)
				}
				for _, op := range ops {
					c, ok := op.(CodeletCall)
					if !ok {
						t.Fatalf("n=%d: region %d holds non-codelet op %s after folding", tc.n, ri, op)
					}
					if ri == 1 && c.Tw == nil {
						t.Fatalf("n=%d: stage-2 call lost its twiddle vector: %s", tc.n, c)
					}
				}
			}
		}
		// Both raw and folded must agree with the reference semantics.
		backend := smp.NewPool(tc.p)
		eRaw, err := NewExecutor(raw, backend)
		if err != nil {
			backend.Close()
			t.Fatal(err)
		}
		eFold, err := NewExecutor(folded, backend)
		if err != nil {
			backend.Close()
			t.Fatal(err)
		}
		src := randVec(tc.n, rng)
		want := applyRef(f, src)
		gotRaw := make([]complex128, tc.n)
		gotFold := make([]complex128, tc.n)
		eRaw.Transform(gotRaw, src)
		eFold.Transform(gotFold, src)
		if d := maxDiff(want, gotRaw); d > 1e-6 {
			t.Fatalf("n=%d: raw program deviates by %g", tc.n, d)
		}
		if d := maxDiff(want, gotFold); d > 1e-6 {
			t.Fatalf("n=%d: folded program deviates by %g", tc.n, d)
		}
		backend.Close()
	}
}

// sameProgram reports the first difference between two programs, ignoring
// only the program and region names: shape, buffers, and every op field down
// to the bits of each twiddle factor.
func sameProgram(a, b *Program) error {
	if a.N != b.N || a.P != b.P || a.Mu != b.Mu || !reflect.DeepEqual(a.Temps, b.Temps) || len(a.Nodes) != len(b.Nodes) {
		return fmt.Errorf("header n=%d p=%d µ=%d temps=%v nodes=%d vs n=%d p=%d µ=%d temps=%v nodes=%d",
			a.N, a.P, a.Mu, a.Temps, len(a.Nodes), b.N, b.P, b.Mu, b.Temps, len(b.Nodes))
	}
	for i := range a.Nodes {
		ra, okA := a.Nodes[i].(*Region)
		rb, okB := b.Nodes[i].(*Region)
		if okA != okB {
			return fmt.Errorf("node %d: region vs barrier", i)
		}
		if !okA {
			continue
		}
		for w := range ra.Workers {
			if len(ra.Workers[w]) != len(rb.Workers[w]) {
				return fmt.Errorf("node %d worker %d: %d ops vs %d", i, w, len(ra.Workers[w]), len(rb.Workers[w]))
			}
			for j, opA := range ra.Workers[w] {
				ca, okA := opA.(CodeletCall)
				cb, okB := rb.Workers[w][j].(CodeletCall)
				if !okA || !okB {
					return fmt.Errorf("node %d worker %d op %d: %s vs %s", i, w, j, opA, rb.Workers[w][j])
				}
				if ca.Dst != cb.Dst || ca.Src != cb.Src || ca.DOff != cb.DOff || ca.DS != cb.DS ||
					ca.SOff != cb.SOff || ca.SS != cb.SS || ca.Tree.String() != cb.Tree.String() ||
					len(ca.Tw) != len(cb.Tw) || (ca.Tw == nil) != (cb.Tw == nil) {
					return fmt.Errorf("node %d worker %d op %d: %s vs %s", i, w, j, ca, cb)
				}
				for k := range ca.Tw {
					x, y := ca.Tw[k], cb.Tw[k]
					if math.Float64bits(real(x)) != math.Float64bits(real(y)) ||
						math.Float64bits(imag(x)) != math.Float64bits(imag(y)) {
						return fmt.Errorf("node %d worker %d op %d twiddle %d: %v vs %v", i, w, j, k, x, y)
					}
				}
			}
		}
	}
	return nil
}

// The rewrite system's program for formula (14), folded, is op for op the
// program the hand lowering ships: the precondition for routing plans
// through the derivation instead of LowerCT.
func TestFoldedDerivationEqualsLowerCT(t *testing.T) {
	for _, c := range []struct{ n, m, p, mu int }{
		{64, 8, 2, 2}, {256, 16, 2, 4}, {256, 16, 2, 2}, {1024, 32, 2, 4}, {1024, 32, 4, 4},
		{1024, 64, 2, 2}, {4096, 64, 2, 4}, {4096, 64, 4, 4}, {16384, 128, 2, 8}, {65536, 256, 2, 4},
	} {
		f, _, err := rewrite.DeriveMulticoreCT(c.n, c.m, c.p, c.mu)
		if err != nil {
			t.Fatalf("%+v: derive: %v", c, err)
		}
		raw, err := FromFormula(f, c.p, c.mu)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		derived, err := Fold(raw)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		hand, err := LowerCT(c.n, c.m, CTConfig{P: c.p, Mu: c.mu})
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if err := sameProgram(derived, hand); err != nil {
			t.Errorf("%+v: derived program differs from LowerCT: %v", c, err)
		}
	}
}

func TestFoldLeavesUnfoldableProgramsIntact(t *testing.T) {
	// A sequential fallback stage (Generic) must survive folding untouched.
	f := spl.NewCompose(spl.NewDFT(8), spl.NewStride(8, 2))
	raw, err := FromFormula(f, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	folded, err := Fold(raw)
	if err != nil {
		t.Fatal(err)
	}
	// The stride permutation feeds a full-size DFT codelet call: it can fold
	// into the gather. Whatever the outcome, semantics must hold.
	e, err := NewExecutor(folded, nil)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	src := randVec(8, rng)
	want := applyRef(f, src)
	got := make([]complex128, 8)
	e.Transform(got, src)
	if d := maxDiff(want, got); d > 1e-9 {
		t.Fatalf("folded program deviates by %g", d)
	}
}

// A diagonal stage ahead of a panel call stays a stage: one fused input
// scale cannot give each lane of the panel its own weights.
func TestFoldKeepsScaleAheadOfPanel(t *testing.T) {
	const n, v = 8, 2
	rng := rand.New(rand.NewSource(10))
	w := randVec(n*v, rng)
	prog := &Program{Name: "scale-panel", N: n * v, P: 1, Mu: 1, Temps: []int{n * v}, Nodes: []Node{
		&Region{Name: "scale", Workers: [][]Op{{Scale{Dst: TempBuf(0), Src: BufSrc, W: w}}}},
		Barrier{},
		&Region{Name: "panel", Workers: [][]Op{{CodeletCall{Dst: BufDst, DS: v, DV: 1, Src: TempBuf(0), SS: v, SV: 1,
			V: v, Tree: exec.LeafTree(n)}}}},
	}}
	folded, err := Fold(prog)
	if err != nil {
		t.Fatal(err)
	}
	run := func(p *Program) []complex128 {
		e, err := NewExecutor(p, nil)
		if err != nil {
			t.Fatal(err)
		}
		out := make([]complex128, n*v)
		e.Transform(out, w)
		return out
	}
	requireIdentical(t, run(prog), run(folded), "folded scale ahead of a panel")
}
