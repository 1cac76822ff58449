package ir

import (
	"fmt"
	"math/cmplx"
	"math/rand"
	"testing"

	"spiralfft/internal/exec"
	"spiralfft/internal/smp"
)

// relError returns max_i |got[i]-want[i]| / max_i |want[i]|.
func relError(want, got []complex128) float64 {
	maxDiff, maxMag := 0.0, 0.0
	for i := range want {
		if d := cmplx.Abs(got[i] - want[i]); d > maxDiff {
			maxDiff = d
		}
		if m := cmplx.Abs(want[i]); m > maxMag {
			maxMag = m
		}
	}
	if maxMag == 0 {
		return maxDiff
	}
	return maxDiff / maxMag
}

// The four-step schedule computes the same DFT as the tree planner's
// recursive schedule; outputs agree to rounding (the generated twiddle rows
// are hi·lo products of directly evaluated roots, so they can differ from
// the tabulated rows in the last ulp — bit identity is not required here,
// tight relative error is).
func TestLowerFourStepMatchesSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	cases := []struct{ n, n1 int }{
		{16, 4},
		{64, 8},
		{64, 4},
		{256, 16},
		{1024, 32},
		{1024, 8},
		{4096, 64},
		{4096, 256},
	}
	for _, tc := range cases {
		prog, err := LowerFourStep(tc.n, tc.n1, FourStepConfig{P: 1})
		if err != nil {
			t.Fatalf("LowerFourStep(%d,%d): %v", tc.n, tc.n1, err)
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("Validate(%d,%d): %v", tc.n, tc.n1, err)
		}
		e, err := NewExecutor(prog, nil)
		if err != nil {
			t.Fatalf("NewExecutor: %v", err)
		}
		seq := exec.MustNewSeq(exec.RadixTree(tc.n))
		src := randVec(tc.n, rng)
		want := make([]complex128, tc.n)
		got := make([]complex128, tc.n)
		seq.Transform(want, src, nil)
		e.Transform(got, src)
		if re := relError(want, got); re > 1e-12 {
			t.Errorf("n=%d n1=%d: rel error %g vs sequential tree", tc.n, tc.n1, re)
		}
		// In place: the InPlace program allows dst aliasing src and must
		// give the same answer bit for bit (its column pass writes a temp,
		// so dst is first written after src is fully consumed).
		ip, err := LowerFourStep(tc.n, tc.n1, FourStepConfig{P: 1, InPlace: true})
		if err != nil {
			t.Fatalf("LowerFourStep(%d,%d) in place: %v", tc.n, tc.n1, err)
		}
		ie, err := NewExecutor(ip, nil)
		if err != nil {
			t.Fatalf("NewExecutor in place: %v", err)
		}
		inpl := append([]complex128(nil), src...)
		ie.Transform(inpl, inpl)
		requireIdentical(t, got, inpl, fmt.Sprintf("four-step n=%d n1=%d in place", tc.n, tc.n1))
	}
}

func TestLowerFourStepParallelMatchesSequential(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	cases := []struct{ n, n1, p int }{
		{256, 16, 2},
		{1024, 32, 4},
		{4096, 64, 3},
		{4096, 32, 2},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n%d_n1%d_p%d", tc.n, tc.n1, tc.p), func(t *testing.T) {
			ref, err := LowerFourStep(tc.n, tc.n1, FourStepConfig{P: 1})
			if err != nil {
				t.Fatalf("sequential lowering: %v", err)
			}
			re, err := NewExecutor(ref, nil)
			if err != nil {
				t.Fatalf("sequential executor: %v", err)
			}
			prog, err := LowerFourStep(tc.n, tc.n1, FourStepConfig{P: tc.p})
			if err != nil {
				t.Fatalf("parallel lowering: %v", err)
			}
			backend := smp.NewPool(tc.p)
			defer backend.Close()
			pe, err := NewExecutor(prog, backend)
			if err != nil {
				t.Fatalf("parallel executor: %v", err)
			}
			src := randVec(tc.n, rng)
			want := make([]complex128, tc.n)
			got := make([]complex128, tc.n)
			re.Transform(want, src)
			pe.Transform(got, src)
			// Same ops, same twiddle generation, different worker
			// partition only: the parallel schedule is bit-identical.
			requireIdentical(t, want, got, fmt.Sprintf("four-step n=%d n1=%d p=%d", tc.n, tc.n1, tc.p))
		})
	}
}

func TestLowerFourStepRejectsBadSplits(t *testing.T) {
	bad := []struct {
		n, n1 int
		cfg   FourStepConfig
	}{
		{64, 5, FourStepConfig{P: 1}},  // not a divisor
		{64, 1, FourStepConfig{P: 1}},  // degenerate
		{64, 64, FourStepConfig{P: 1}}, // degenerate
		{64, 2, FourStepConfig{P: 2}},  // n1 not µ-aligned for P>1
		{64, 8, FourStepConfig{P: 16}}, // factors smaller than P
		{4096, 64, FourStepConfig{P: 0}},
	}
	for _, tc := range bad {
		if _, err := LowerFourStep(tc.n, tc.n1, tc.cfg); err == nil {
			t.Errorf("LowerFourStep(%d, %d, %+v) accepted", tc.n, tc.n1, tc.cfg)
		}
	}
}

// Transpose ops must be exact for every tile size, including tiles that do
// not divide the matrix edges.
func TestTransposeOpTiling(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	for _, tc := range []struct{ rows, cols, tile int }{
		{8, 8, 4}, {16, 4, 4}, {4, 16, 3}, {12, 20, 5}, {30, 10, 7}, {8, 8, 0}, {64, 32, 1000},
	} {
		n := tc.rows * tc.cols
		prog := &Program{
			Name: "transpose-test", N: n, P: 1, Mu: 4,
			Nodes: []Node{&Region{Name: "t", Workers: [][]Op{{
				Transpose{Dst: BufDst, Src: BufSrc, Rows: tc.rows, Cols: tc.cols, Lo: 0, Hi: tc.cols, Tile: tc.tile},
			}}}},
		}
		if err := prog.Validate(); err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		e, err := NewExecutor(prog, nil)
		if err != nil {
			t.Fatalf("%+v: %v", tc, err)
		}
		src := randVec(n, rng)
		dst := make([]complex128, n)
		e.Transform(dst, src)
		for i := 0; i < tc.rows; i++ {
			for j := 0; j < tc.cols; j++ {
				if dst[j*tc.rows+i] != src[i*tc.cols+j] {
					t.Fatalf("%+v: dst[%d,%d] = %v, want %v", tc, j, i, dst[j*tc.rows+i], src[i*tc.cols+j])
				}
			}
		}
	}
}

// The four-step program must never allocate an N-element twiddle table or
// stage more than a panel: per-worker scratch stays O(n·µ) for the longer
// sub-FFT n = max(n1, n2) (the staged panel, one generated twiddle row and
// the sub-plan's own scratch), nowhere near N.
func TestFourStepScratchStaysSmall(t *testing.T) {
	for _, c := range []struct{ n, n1, p int }{{1 << 16, 1 << 8, 1}, {1 << 16, 1 << 10, 2}, {1 << 22, 1 << 14, 2}} {
		for _, inverse := range []bool{false, true} {
			prog, err := LowerFourStep(c.n, c.n1, FourStepConfig{P: c.p, Inverse: inverse})
			if err != nil {
				t.Fatal(err)
			}
			backend := smp.NewSpawn(c.p)
			e, err := NewExecutor(prog, backend)
			backend.Close()
			if err != nil {
				t.Fatal(err)
			}
			long := max(c.n1, c.n/c.n1)
			if bound := (4 + 4) * long; e.need > bound {
				t.Errorf("n=%d n1=%d p=%d inverse=%v: scratch need %d > %d = (µ+4)·%d; twiddle table leaked into scratch?",
					c.n, c.n1, c.p, inverse, e.need, bound, long)
			}
		}
	}
}

// The out-of-place four-step program is the two panel passes and nothing
// else: no temp, no transpose, one barrier, and at this square split
// µ-wide panels on both sides.
// The InPlace program differs only in its one n-element temp between the
// passes.
func TestFourStepProgramHasNoTempOrTranspose(t *testing.T) {
	for _, p := range []int{1, 2, 4} {
		for _, cfg := range []FourStepConfig{{P: p}, {P: p, Inverse: true}, {P: p, InPlace: true}, {P: p, Inverse: true, InPlace: true}} {
			prog, err := LowerFourStep(4096, 64, cfg)
			if err != nil {
				t.Fatal(err)
			}
			wantTemps := 0
			if cfg.InPlace {
				wantTemps = 1
			}
			if len(prog.Temps) != wantTemps || wantTemps == 1 && prog.Temps[0] != 4096 {
				t.Errorf("%+v: temps %v", cfg, prog.Temps)
			}
			if len(prog.Nodes) != 3 || len(prog.Regions()) != 2 {
				t.Errorf("%+v: %d nodes, %d regions; want col-fft, barrier, row-fft", cfg, len(prog.Nodes), len(prog.Regions()))
			}
			ops := 0
			for _, r := range prog.Regions() {
				for _, wops := range r.Workers {
					for _, op := range wops {
						ops++
						if !isPanel(op) {
							t.Fatalf("%+v: region %q holds %s, not a µ-wide panel call", cfg, r.Name, op)
						}
					}
				}
			}
			// 64/4 column panels and 64/4 row panels.
			if ops != 32 {
				t.Errorf("%+v: %d ops, want 32 panels", cfg, ops)
			}
		}
	}
}

// TestFourStepPanelWidths pins the op width of each pass at the splits the
// planner picks for tier-sized transforms (search.TestRankFourStepHeadGolden):
// a lopsided split widens its column ops to 16µ, a square one keeps µ on
// both passes, and the row ops stay µ wide. Each worker's ops tile exactly
// its µ-aligned panelRange, left to right, every op W wide but the last.
func TestFourStepPanelWidths(t *testing.T) {
	for _, c := range []struct{ n, n1, colW, rowW int }{ // widths in units of µ
		{1 << 16, 256, 1, 1},
		{1 << 20, 16384, 16, 1},
		{1 << 22, 16384, 16, 1},
		{1 << 24, 4096, 1, 1},
		{3 << 20, 12288, 16, 1},
	} {
		for _, mu := range []int{2, 4} {
			for _, p := range []int{1, 2, 4} {
				for _, inverse := range []bool{false, true} {
					prog, err := LowerFourStep(c.n, c.n1, FourStepConfig{P: p, Mu: mu, Inverse: inverse})
					if err != nil {
						t.Fatal(err)
					}
					label := fmt.Sprintf("n=%d n1=%d µ=%d p=%d inverse=%v", c.n, c.n1, mu, p, inverse)
					regions := prog.Regions()
					checkPanelWidths(t, label+" col-fft", regions[0], c.n1, mu, c.colW*mu)
					checkPanelWidths(t, label+" row-fft", regions[1], c.n/c.n1, mu, c.rowW*mu)
				}
			}
		}
	}
}

// checkPanelWidths checks that the panel ops of each worker of r cover the
// columns panelRange(m, µ, p, w) left to right in ops of width w, the last
// of a range possibly narrower.
func checkPanelWidths(t *testing.T, label string, r *Region, m, mu, w int) {
	t.Helper()
	for wk, ops := range r.Workers {
		lo, hi := panelRange(m, mu, len(r.Workers), wk)
		next := lo
		for i, op := range ops {
			var first, v int
			switch c := op.(type) {
			case CodeletCall:
				first, v = min(c.SOff, c.SOff+(c.V-1)*c.SV), c.V
			case CodeletGenCall:
				first, v = min(c.SOff, c.SOff+(c.V-1)*c.SV), c.V
			default:
				t.Fatalf("%s: worker %d holds %s", label, wk, op)
			}
			if first != next || v < 1 || v > w || v < w && i != len(ops)-1 {
				t.Fatalf("%s: worker %d op %d covers [%d, %d); want width %d from %d", label, wk, i, first, first+v, w, next)
			}
			next += v
		}
		if next != hi {
			t.Fatalf("%s: worker %d covers [%d, %d), want panelRange [%d, %d)", label, wk, lo, next, lo, hi)
		}
	}
}

// A panel call is the V lane calls it stands for, bit for bit, in every
// side form: rows or lanes, forward or reversed strides, in place where
// allowed or not, with a table scale or a generated twiddle row. Rows in
// and lanes out is the column pass's form; the widths cover a µ-sized
// panel, a wide one (V = 8) and a ragged one (V = 10), and n = 6 leaves
// the staging a two-row tail after its four-row blocks.
func TestPanelCallMatchesLaneCalls(t *testing.T) {
	rng := rand.New(rand.NewSource(14))
	for _, c := range []struct {
		tree *exec.Tree
		v    int
	}{
		{exec.SplitTree(exec.LeafTree(4), exec.LeafTree(3)), 3},
		{exec.SplitTree(exec.LeafTree(4), exec.LeafTree(3)), 8},
		{exec.SplitTree(exec.LeafTree(2), exec.LeafTree(3)), 10},
	} {
		testPanelCallMatchesLaneCalls(t, rng, c.tree, c.v)
	}
}

func testPanelCallMatchesLaneCalls(t *testing.T, rng *rand.Rand, tree *exec.Tree, v int) {
	n := tree.N
	type side struct{ off, s, l int }
	rows := []side{{0, v, 1}, {v - 1, v, -1}, {(n - 1) * v, -v, 1}}
	lanes := []side{{0, 1, n}, {n - 1, -1, n}, {(v - 1) * n, 1, -n}}
	for _, in := range append(rows, lanes...) {
		for _, out := range append(rows, lanes...) {
			for _, gen := range []bool{false, true} {
				var panel, lane func(l int) Op
				if gen {
					panel = func(int) Op {
						return CodeletGenCall{Dst: BufDst, DOff: out.off, DS: out.s, DV: out.l, Src: BufSrc, SOff: in.off, SS: in.s, SV: in.l,
							V: v, Tree: tree, TwDen: 97, TwRow: 5, TwOff: 2}
					}
					lane = func(l int) Op {
						return CodeletGenCall{Dst: BufDst, DOff: out.off + l*out.l, DS: out.s, Src: BufSrc, SOff: in.off + l*in.l, SS: in.s,
							Tree: tree, TwDen: 97, TwRow: 5 + l, TwOff: 2}
					}
				} else {
					w := randVec(n, rng)
					panel = func(int) Op {
						return CodeletCall{Dst: BufDst, DOff: out.off, DS: out.s, DV: out.l, Src: BufSrc, SOff: in.off, SS: in.s, SV: in.l,
							V: v, Tree: tree, Tw: w}
					}
					lane = func(l int) Op {
						return CodeletCall{Dst: BufDst, DOff: out.off + l*out.l, DS: out.s, Src: BufSrc, SOff: in.off + l*in.l, SS: in.s, Tree: tree, Tw: w}
					}
				}
				var laneOps []Op
				for l := 0; l < v; l++ {
					laneOps = append(laneOps, lane(l))
				}
				run := func(ops []Op, dst, src []complex128) {
					prog := &Program{Name: "panel", N: n * v, P: 1, Mu: 4, Nodes: []Node{&Region{Name: "r", Workers: [][]Op{ops}}}}
					e, err := NewExecutor(prog, nil)
					if err != nil {
						t.Fatalf("%s: %v", ops[0], err)
					}
					e.Transform(dst, src)
				}
				src := randVec(n*v, rng)
				want, got := make([]complex128, n*v), make([]complex128, n*v)
				run(laneOps, want, src)
				run([]Op{panel(0)}, got, src)
				requireIdentical(t, want, got, fmt.Sprint(panel(0)))
				// Every side here covers all n·v elements, so the panel may
				// run in place when either side is rows (|l| = 1) or the
				// two sides are the same.
				if in == out || abs(in.l) == 1 || abs(out.l) == 1 {
					inpl := append([]complex128(nil), src...)
					run([]Op{panel(0)}, inpl, inpl)
					requireIdentical(t, want, inpl, fmt.Sprint(panel(0), " in place"))
				}
			}
		}
	}
}
