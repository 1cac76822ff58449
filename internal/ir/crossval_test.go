package ir

import (
	"fmt"
	"math/rand"
	"testing"

	"spiralfft/internal/codelet"
	"spiralfft/internal/exec"
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

func TestLowerWHTBitIdenticalToWHTInPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	for _, tc := range []struct{ k, p int }{{4, 1}, {8, 1}, {8, 2}, {10, 4}, {5, 2}, {12, 2}} {
		n := 1 << uint(tc.k)
		prog, err := LowerWHT(n, tc.p, 4)
		if err != nil {
			t.Fatalf("LowerWHT: %v", err)
		}
		_, split := exec.SplitFor(n, tc.p, 4)
		if wantPar := tc.p > 1 && split; (prog.P > 1) != wantPar {
			t.Fatalf("k=%d p=%d: program P=%d, want parallel=%v", tc.k, tc.p, prog.P, wantPar)
		}
		var backend smp.Backend
		if prog.P > 1 {
			backend = smp.NewPool(prog.P)
		}
		e, err := NewExecutor(prog, backend)
		if err != nil {
			t.Fatalf("NewExecutor: %v", err)
		}
		src := randVec(n, rng)
		want := append([]complex128(nil), src...)
		exec.WHTInPlace(want)
		got := make([]complex128, n)
		e.Transform(got, src)
		requireIdentical(t, want, got, fmt.Sprintf("wht k=%d p=%d", tc.k, tc.p))
		if backend != nil {
			backend.Close()
		}
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
}
