package ir

import (
	"fmt"
	"math/rand"
	"testing"

	"spiralfft/internal/codelet"
	"spiralfft/internal/exec"
	"spiralfft/internal/rewrite"
	"spiralfft/internal/smp"
)

// Cross-validation: IR-executed output must be BIT-IDENTICAL to the
// sequential executors that stay outside the IR. Every lowering runs
// exec.Seq sub-plans and exec.WHTInPlace butterflies in the same
// per-element operation order as the sequential execution of the same
// factorization (exec.Seq over SplitTree(left, right) for formula (14)),
// through the same codelets and shared twiddle tables, so not even the last
// ulp may differ — on any schedule, worker count or backend.

func randVec(n int, rng *rand.Rand) []complex128 {
	v := make([]complex128, n)
	for i := range v {
		v[i] = complex(rng.Float64()*2-1, rng.Float64()*2-1)
	}
	return v
}

func requireIdentical(t *testing.T, want, got []complex128, label string) {
	t.Helper()
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("%s: output differs at %d: ir=%v exec=%v", label, i, got[i], want[i])
		}
	}
}

// randTree builds a random factorization tree for n (mirrors the search
// package's generator).
func randTree(n int, rng *rand.Rand) *exec.Tree {
	if codelet.HasUnrolled(n) && (rng.Intn(2) == 0 || n <= 4) {
		return exec.LeafTree(n)
	}
	var divs []int
	for d := 2; d*2 <= n; d++ {
		if n%d == 0 {
			divs = append(divs, d)
		}
	}
	if len(divs) == 0 {
		return exec.LeafTree(n)
	}
	m := divs[rng.Intn(len(divs))]
	return exec.SplitTree(randTree(m, rng), randTree(n/m, rng))
}

func TestLowerTreeBitIdenticalToSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{2, 8, 16, 64, 256, 1024} {
		for trial := 0; trial < 8; trial++ {
			tree := randTree(n, rng)
			prog, err := LowerTree(tree)
			if err != nil {
				t.Fatalf("LowerTree(%s): %v", tree, err)
			}
			if err := prog.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			e, err := NewExecutor(prog, nil)
			if err != nil {
				t.Fatalf("NewExecutor: %v", err)
			}
			seq := exec.MustNewSeq(tree)
			src := randVec(n, rng)
			want := make([]complex128, n)
			got := make([]complex128, n)
			seq.Transform(want, src, nil)
			e.Transform(got, src)
			requireIdentical(t, want, got, fmt.Sprintf("n=%d tree=%s", n, tree))
		}
	}
}

func TestLowerCTBitIdenticalToSeq(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	cases := []struct {
		n, m, p int
		sched   Schedule
	}{
		{256, 16, 2, ScheduleBlock},
		{1024, 32, 2, ScheduleBlock},
		{1024, 64, 4, ScheduleBlock},
		{4096, 64, 4, ScheduleBlock},
		{256, 16, 3, ScheduleCyclic},
		{1024, 32, 2, ScheduleCyclic},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(fmt.Sprintf("n%d_m%d_p%d_%s", tc.n, tc.m, tc.p, tc.sched), func(t *testing.T) {
			backend := smp.NewPool(tc.p)
			defer backend.Close()
			for trial := 0; trial < 8; trial++ {
				lt := randTree(tc.m, rng)
				rt := randTree(tc.n/tc.m, rng)
				prog, err := LowerCT(tc.n, tc.m, CTConfig{
					P: tc.p, Schedule: tc.sched, LeftTree: lt, RightTree: rt,
				})
				if err != nil {
					t.Fatalf("LowerCT: %v", err)
				}
				if err := prog.Validate(); err != nil {
					t.Fatalf("Validate: %v", err)
				}
				e, err := NewExecutor(prog, backend)
				if err != nil {
					t.Fatalf("NewExecutor: %v", err)
				}
				src := randVec(tc.n, rng)
				want := make([]complex128, tc.n)
				got := make([]complex128, tc.n)
				exec.MustNewSeq(exec.SplitTree(lt, rt)).Transform(want, src, nil)
				e.Transform(got, src)
				requireIdentical(t, want, got, fmt.Sprintf("lt=%s rt=%s", lt, rt))
			}
		})
	}
}

func TestLowerCTErrors(t *testing.T) {
	pool := smp.NewPool(2)
	defer pool.Close()
	lower := func(n, m int, cfg CTConfig) error { _, err := LowerCT(n, m, cfg); return err }
	compile := func(n, m int, cfg CTConfig, b smp.Backend) error {
		prog, err := LowerCT(n, m, cfg)
		if err != nil {
			t.Fatalf("LowerCT(%d, %d): %v", n, m, err)
		}
		_, err = NewExecutor(prog, b)
		return err
	}
	for _, c := range []struct {
		name string
		err  error
	}{
		{"bad P", lower(256, 16, CTConfig{P: 0})},
		{"bad split", lower(256, 3, CTConfig{P: 2})},
		{"pµ violated", lower(64, 4, CTConfig{P: 2, Mu: 4})},
		{"cyclic split too small", lower(64, 2, CTConfig{P: 3, Schedule: ScheduleCyclic})},
		{"wrong subtree", lower(256, 16, CTConfig{P: 2, Mu: 2, LeftTree: exec.RadixTree(8)})},
		{"missing backend", compile(256, 16, CTConfig{P: 2}, nil)},
		{"worker mismatch", compile(256, 16, CTConfig{P: 4, Mu: 1}, pool)},
	} {
		if c.err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if ScheduleBlock.String() != "block" || ScheduleCyclic.String() != "cyclic" {
		t.Error("Schedule.String wrong")
	}
}

func TestLowerCTInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	backend := smp.NewPool(2)
	defer backend.Close()
	prog, err := LowerCT(256, 16, CTConfig{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	e, err := NewExecutor(prog, backend)
	if err != nil {
		t.Fatal(err)
	}
	src := randVec(256, rng)
	want := make([]complex128, 256)
	e.Transform(want, src)
	buf := append([]complex128(nil), src...)
	e.Transform(buf, buf) // dst == src aliasing must be allowed
	requireIdentical(t, want, buf, "in-place")
}

// The parallel WHT program (I_p ⊗∥ WHT_{n/p}, then WHT_p ⊗ I_{n/p} on row
// slices) performs every point's radix-2 additions in WHTInPlace's order,
// so forward and inverse agree with it bit for bit, out of place and in
// place.
func TestLowerWHTBitIdenticalToWHTInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	type tc struct{ k, p int }
	cases := []tc{{4, 1}, {8, 1}, {5, 2}, {3, 2}}
	for k := 6; k <= 16; k++ {
		cases = append(cases, tc{k, 2}, tc{k, 4})
	}
	for _, c := range cases {
		n := 1 << uint(c.k)
		fwd, err := LowerWHT(n, c.p, 4)
		if err != nil {
			t.Fatalf("LowerWHT: %v", err)
		}
		inv, err := LowerWHTInverse(n, c.p, 4)
		if err != nil {
			t.Fatalf("LowerWHTInverse: %v", err)
		}
		_, split := WHTSplit(n, c.p, 4)
		if wantPar := c.p > 1 && split; (fwd.P > 1) != wantPar || fwd.P != inv.P {
			t.Fatalf("k=%d p=%d: program P=%d (inverse %d), want parallel=%v", c.k, c.p, fwd.P, inv.P, wantPar)
		}
		src := randVec(n, rng)
		want := append([]complex128(nil), src...)
		exec.WHTInPlace(want)
		got, in := runProgram(t, fwd, src, true)
		requireIdentical(t, want, got, fmt.Sprintf("wht k=%d p=%d", c.k, c.p))
		requireIdentical(t, want, in, fmt.Sprintf("wht k=%d p=%d in place", c.k, c.p))
		copy(want, src)
		exec.WHTInPlaceScaled(want, 1/float64(n))
		got, in = runProgram(t, inv, src, true)
		requireIdentical(t, want, got, fmt.Sprintf("inverse wht k=%d p=%d", c.k, c.p))
		requireIdentical(t, want, in, fmt.Sprintf("inverse wht k=%d p=%d in place", c.k, c.p))
	}
}

// WHTSplit parallelizes exactly the sizes exec.SplitFor's balanced split
// did, (pµ)² | n: only the split changed, so no WHT that ran sequentially
// now pays for two regions and a barrier.
func TestWHTSplitKeepsSplitForFloor(t *testing.T) {
	for k := 1; k <= 16; k++ {
		n := 1 << uint(k)
		for _, p := range []int{2, 4, 8} {
			for _, mu := range []int{1, 2, 4} {
				a, ok := WHTSplit(n, p, mu)
				if _, want := exec.SplitFor(n, p, mu); ok != want {
					t.Errorf("n=%d p=%d µ=%d: WHTSplit ok=%v, SplitFor ok=%v", n, p, mu, ok, want)
				}
				if ok && 1<<uint(a) != p {
					t.Errorf("n=%d p=%d µ=%d: a=%d, want log2 p", n, p, mu, a)
				}
			}
		}
	}
}

// The program the rewrite system derives for the WHT with LowerWHT's split,
// lowered by FromFormula and loop-merged by Fold, is LowerWHT's schedule:
// the two L^{p²}_p ⊗̄ I_µ permutations fold into the row-form WHT_p ⊗ I_{n/p²}
// calls, leaving two regions and one barrier, and it computes LowerWHT's
// output bit for bit.
func TestFoldedDerivedWHTMatchesLowerWHT(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	for _, c := range []struct{ k, p int }{{6, 2}, {9, 2}, {12, 2}, {8, 4}, {11, 4}, {12, 4}} {
		n := 1 << uint(c.k)
		a, ok := WHTSplit(n, c.p, 4)
		if !ok {
			t.Fatalf("k=%d p=%d: no WHT split", c.k, c.p)
		}
		f, _, err := rewrite.DeriveMulticoreWHT(c.k, a, c.p, 4)
		if err != nil {
			t.Fatalf("k=%d p=%d: %v", c.k, c.p, err)
		}
		raw, err := FromFormula(f, c.p, 4)
		if err != nil {
			t.Fatal(err)
		}
		derived, err := Fold(raw)
		if err != nil {
			t.Fatal(err)
		}
		if r := len(derived.Regions()); r != 2 {
			t.Errorf("k=%d p=%d: folded derived program has %d regions, want 2:\n%s", c.k, c.p, r, derived)
		}
		lowered, err := LowerWHT(n, c.p, 4)
		if err != nil {
			t.Fatal(err)
		}
		src := randVec(n, rng)
		want, _ := runProgram(t, lowered, src, false)
		got, _ := runProgram(t, derived, src, false)
		requireIdentical(t, want, got, fmt.Sprintf("derived wht k=%d p=%d", c.k, c.p))
	}
}

func TestLowerBatchBitIdenticalToSeqLoop(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, count, workers = 64, 8, 2
	tree := randTree(n, rng)
	prog, err := LowerBatch(tree, count, workers)
	if err != nil {
		t.Fatal(err)
	}
	backend := smp.NewPool(workers)
	defer backend.Close()
	e, err := NewExecutor(prog, backend)
	if err != nil {
		t.Fatal(err)
	}
	seq := exec.MustNewSeq(tree)
	src := randVec(n*count, rng)
	want := make([]complex128, n*count)
	got := make([]complex128, n*count)
	scratch := seq.NewScratch()
	for s := 0; s < count; s++ {
		seq.TransformStrided(want, s*n, 1, src, s*n, 1, nil, scratch)
	}
	e.Transform(got, src)
	requireIdentical(t, want, got, "batch")
}

func TestLower2DBitIdenticalToStageLoops(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	const rows, cols, p = 16, 32, 2
	rowTree, colTree := exec.RadixTree(cols), exec.RadixTree(rows)
	prog, err := Lower2D(rows, cols, p, rowTree, colTree)
	if err != nil {
		t.Fatal(err)
	}
	backend := smp.NewPool(p)
	defer backend.Close()
	e, err := NewExecutor(prog, backend)
	if err != nil {
		t.Fatal(err)
	}
	rowPlan := exec.MustNewSeq(rowTree)
	colPlan := exec.MustNewSeq(colTree)
	src := randVec(rows*cols, rng)
	want := make([]complex128, rows*cols)
	got := make([]complex128, rows*cols)
	scratch := make([]complex128, rowPlan.ScratchLen()+colPlan.ScratchLen())
	for r := 0; r < rows; r++ {
		rowPlan.TransformStrided(want, r*cols, 1, src, r*cols, 1, nil, scratch)
	}
	for c := 0; c < cols; c++ {
		colPlan.TransformStrided(want, c, cols, want, c, cols, nil, scratch)
	}
	e.Transform(got, src)
	requireIdentical(t, want, got, "2d")
}

func TestProgramStringAndValidate(t *testing.T) {
	prog, err := LowerCT(256, 16, CTConfig{P: 2})
	if err != nil {
		t.Fatal(err)
	}
	s := prog.String()
	if s == "" {
		t.Fatal("empty program listing")
	}
	if prog.Regions()[0].Name != "stage1" || prog.Regions()[1].Name != "stage2" {
		t.Fatalf("unexpected region names in %v", prog.Regions())
	}
	// Structural errors must be caught.
	bad := &Program{Name: "bad", N: 8, P: 1, Nodes: []Node{Barrier{}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("leading barrier not rejected")
	}
	bad2 := &Program{Name: "bad2", N: 8, P: 2, Nodes: []Node{
		&Region{Name: "r", Workers: [][]Op{{}}},
	}}
	if err := bad2.Validate(); err == nil {
		t.Fatal("worker-count mismatch not rejected")
	}
	// Row-form WHT calls: rows must not overlap and must fit the buffer.
	rows := func(c WHTCall) *Program {
		return &Program{Name: "rows", N: 16, P: 1, Nodes: []Node{&Region{Name: "r", Workers: [][]Op{{c}}}}}
	}
	ok := WHTCall{Dst: BufDst, DS: 8, Src: BufSrc, SS: 8, N: 2, V: 8}
	if err := rows(ok).Validate(); err != nil {
		t.Fatalf("valid row-form call rejected: %v", err)
	}
	for _, c := range []WHTCall{
		{Dst: BufDst, DS: 4, Src: BufSrc, SS: 8, N: 2, V: 8},          // overlapping dst rows
		{Dst: BufDst, DOff: 1, DS: 8, Src: BufSrc, SS: 8, N: 2, V: 8}, // last dst row past the end
		{Dst: BufDst, DS: 8, Src: BufSrc, SOff: 4, SS: 8, N: 2, V: 8}, // last src row past the end
		{Dst: BufDst, DS: 1, Src: BufSrc, SS: 1, N: 2, V: -1},         // negative width
	} {
		if err := rows(c).Validate(); err == nil {
			t.Errorf("row-form call %s not rejected", c)
		}
	}
}
