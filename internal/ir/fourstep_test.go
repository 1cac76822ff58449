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
		// In place: dst aliasing src must give the same answer (dst is first
		// written after src is fully consumed).
		inpl := append([]complex128(nil), src...)
		e.Transform(inpl, inpl)
		if re := relError(want, inpl); re > 1e-12 {
			t.Errorf("n=%d n1=%d: in-place rel error %g", tc.n, tc.n1, re)
		}
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

// The four-step program must never allocate an N-element twiddle table: its
// per-worker scratch requirement stays O(n1 + sub-plan scratch).
func TestFourStepScratchStaysSmall(t *testing.T) {
	n, n1 := 1<<16, 1<<8
	prog, err := LowerFourStep(n, n1, FourStepConfig{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	// Generous bound: a few multiples of the row length, nowhere near N.
	if e.need > 8*n1+4*int(math.Sqrt(float64(n))) {
		t.Errorf("four-step scratch need %d for n=%d n1=%d; twiddle table leaked into scratch?", e.need, n, n1)
	}
}
