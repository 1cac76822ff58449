package ir

import (
	"math/rand"
	"os"
	"slices"
	"testing"

	"spiralfft/internal/exec"
	"spiralfft/internal/smp"
)

// countKinds counts worker w's compiled ops of each kind between barriers,
// one map per region.
func countKinds(e *Executor, w int) []map[opKind]int {
	stages := []map[opKind]int{{}}
	for _, op := range e.workers[w] {
		if op.kind == opBarrier {
			stages = append(stages, map[opKind]int{})
			continue
		}
		stages[len(stages)-1][op.kind]++
	}
	return stages
}

// incache-p2's program, n = 1024 on two workers, runs each worker's 16
// dft32 calls per stage as one loop op of 16 lanes.
func TestIncacheProgramCompilesToLoops(t *testing.T) {
	prog, err := LowerCT(1024, 32, CTConfig{P: 2, Mu: 4})
	if err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile("../../testdata/program_dft1024_p2.golden")
	if err != nil {
		t.Fatal(err)
	}
	if prog.String() != string(golden) {
		t.Fatalf("LowerCT(1024, 32) is not the pinned incache-p2 program:\n%s", prog)
	}
	pool := smp.NewPool(2)
	defer pool.Close()
	e, err := NewExecutor(prog, pool)
	if err != nil {
		t.Fatal(err)
	}
	for w := 0; w < 2; w++ {
		for s, kinds := range countKinds(e, w) {
			if kinds[opCodeletLoop] != 1 || len(kinds) != 1 {
				t.Errorf("worker %d stage %d compiles to %v, want one loop op", w, s+1, kinds)
			}
		}
		for _, op := range e.workers[w] {
			if op.kind == opCodeletLoop && op.v != 16 {
				t.Errorf("worker %d: a loop op of %d lanes, want 16", w, op.v)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	x := randVec(1024, rng)
	got := make([]complex128, 1024)
	e.Transform(got, x)
	if err := relError(naiveDFT(x), got); err > 1e-12 {
		t.Errorf("looped incache-p2 program: relative error %g", err)
	}
}

// callsProgram is a one-worker program of the calls cs over buffers of n,
// in one region (the executor may fold them into loops) or each in its own
// region, split by barriers (it cannot).
func callsProgram(n int, split bool, cs ...CodeletCall) *Program {
	prog := &Program{Name: "calls", N: n, P: 1, Mu: 1}
	if !split {
		ops := make([]Op, len(cs))
		for i, c := range cs {
			ops[i] = c
		}
		prog.Nodes = []Node{&Region{Name: "all", Workers: [][]Op{ops}}}
		return prog
	}
	for i, c := range cs {
		if i > 0 {
			prog.Nodes = append(prog.Nodes, Barrier{})
		}
		prog.Nodes = append(prog.Nodes, &Region{Name: "one", Workers: [][]Op{{c}}})
	}
	return prog
}

// loopLanes lists the lane counts of worker 0's loop ops in order.
func loopLanes(e *Executor) []int {
	var out []int
	for _, op := range e.workers[0] {
		if op.kind == opCodeletLoop {
			out = append(out, op.v)
		}
	}
	return out
}

// The executor folds adjacent leaf calls into one loop op only when no
// call of the run writes what another reads or writes, with src and dst
// read as one buffer: run in place, b below reads the elements a has just
// written, so a loop, whose quads load before they store, would read stale
// inputs. A third call is checked against every call of the run, not only
// the one before it. Folded or not, every program's output matches the
// same calls split by barriers, out of place and in place.
func TestExecutorPairsOnlyIndependentCalls(t *testing.T) {
	leaf := exec.LeafTree(8)
	rng := rand.New(rand.NewSource(5))
	tw := randVec(24, rng)
	cases := []struct {
		name  string
		calls []CodeletCall
		lanes []int
	}{
		{"b reads what a wrote", []CodeletCall{
			{Dst: BufDst, DOff: 0, DS: 1, Src: BufSrc, SOff: 8, SS: 1, Tree: leaf},
			{Dst: BufDst, DOff: 8, DS: 1, Src: BufSrc, SOff: 0, SS: 1, Tree: leaf}}, []int{1, 1}},
		{"columns of a strided stage", []CodeletCall{
			{Dst: BufDst, DOff: 0, DS: 3, Src: BufSrc, SOff: 0, SS: 3, Tree: leaf, Tw: tw[0:8]},
			{Dst: BufDst, DOff: 1, DS: 3, Src: BufSrc, SOff: 1, SS: 3, Tree: leaf, Tw: tw[8:16]},
			{Dst: BufDst, DOff: 2, DS: 3, Src: BufSrc, SOff: 2, SS: 3, Tree: leaf, Tw: tw[16:24]}}, []int{3}},
		{"blocks in place", []CodeletCall{
			{Dst: BufDst, DOff: 8, DS: 1, Src: BufSrc, SOff: 8, SS: 1, Tree: leaf},
			{Dst: BufDst, DOff: 0, DS: 1, Src: BufSrc, SOff: 0, SS: 1, Tree: leaf}}, []int{2}},
		{"one call scaled, one not", []CodeletCall{
			{Dst: BufDst, DOff: 0, DS: 2, Src: BufSrc, SOff: 0, SS: 2, Tree: leaf, Tw: tw[:8]},
			{Dst: BufDst, DOff: 1, DS: 2, Src: BufSrc, SOff: 1, SS: 2, Tree: leaf}}, []int{1, 1}},
		{"scale windows out of order", []CodeletCall{
			{Dst: BufDst, DOff: 0, DS: 2, Src: BufSrc, SOff: 0, SS: 2, Tree: leaf, Tw: tw[8:16]},
			{Dst: BufDst, DOff: 1, DS: 2, Src: BufSrc, SOff: 1, SS: 2, Tree: leaf, Tw: tw[0:8]}}, []int{1, 1}},
		{"c writes what a read", []CodeletCall{
			{Dst: BufDst, DOff: 0, DS: 1, Src: BufSrc, SOff: 32, SS: 1, Tree: leaf},
			{Dst: BufDst, DOff: 16, DS: 1, Src: BufSrc, SOff: 48, SS: 1, Tree: leaf},
			{Dst: BufDst, DOff: 32, DS: 1, Src: BufSrc, SOff: 64, SS: 1, Tree: leaf}}, []int{2, 1}},
	}
	const n = 72
	for _, c := range cases {
		e, err := NewExecutor(callsProgram(n, false, c.calls...), nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewExecutor(callsProgram(n, true, c.calls...), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := loopLanes(e); !slices.Equal(got, c.lanes) {
			t.Errorf("%s: loop ops of %v lanes, want %v", c.name, got, c.lanes)
		}
		x := randVec(n, rng)
		want, got := make([]complex128, n), make([]complex128, n)
		ref.Transform(want, x)
		e.Transform(got, x)
		requireIdentical(t, want, got, c.name+" out of place")
		copy(want, x)
		copy(got, x)
		ref.Transform(want, want)
		e.Transform(got, got)
		requireIdentical(t, want, got, c.name+" in place")
	}
}
