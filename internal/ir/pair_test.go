package ir

import (
	"math/rand"
	"os"
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
// dft32 calls per stage as 8 pairs.
func TestIncacheProgramCompilesToPairs(t *testing.T) {
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
			if kinds[opCodeletPair] != 8 || len(kinds) != 1 {
				t.Errorf("worker %d stage %d compiles to %v, want 8 pair ops", w, s+1, kinds)
			}
		}
	}
	rng := rand.New(rand.NewSource(3))
	x := randVec(1024, rng)
	got := make([]complex128, 1024)
	e.Transform(got, x)
	if err := relError(naiveDFT(x), got); err > 1e-12 {
		t.Errorf("paired incache-p2 program: relative error %g", err)
	}
}

// twoCalls is a one-worker program of the calls a and b, in one region
// (the executor may pair them) or split by a barrier (it cannot).
func twoCalls(a, b CodeletCall, split bool) *Program {
	n := 2 * a.Tree.N
	prog := &Program{Name: "two-calls", N: n, P: 1, Mu: 1}
	if split {
		prog.Nodes = []Node{
			&Region{Name: "a", Workers: [][]Op{{a}}},
			Barrier{},
			&Region{Name: "b", Workers: [][]Op{{b}}},
		}
	} else {
		prog.Nodes = []Node{&Region{Name: "ab", Workers: [][]Op{{a, b}}}}
	}
	return prog
}

// The executor pairs adjacent leaf calls only when neither writes what the
// other reads or writes, with src and dst read as one buffer: run in place,
// b below reads the elements a has just written, so a pair, whose loads all
// precede its stores, would read stale inputs. Paired or not, every
// program's output matches the same calls split by a barrier, out of place
// and in place.
func TestExecutorPairsOnlyIndependentCalls(t *testing.T) {
	leaf := exec.LeafTree(8)
	rng := rand.New(rand.NewSource(5))
	tw0, tw1 := randVec(8, rng), randVec(8, rng)
	cases := []struct {
		name   string
		a, b   CodeletCall
		paired bool
	}{
		{"b reads what a wrote",
			CodeletCall{Dst: BufDst, DOff: 0, DS: 1, Src: BufSrc, SOff: 8, SS: 1, Tree: leaf},
			CodeletCall{Dst: BufDst, DOff: 8, DS: 1, Src: BufSrc, SOff: 0, SS: 1, Tree: leaf}, false},
		{"columns of a strided stage",
			CodeletCall{Dst: BufDst, DOff: 0, DS: 2, Src: BufSrc, SOff: 0, SS: 2, Tree: leaf, Tw: tw0},
			CodeletCall{Dst: BufDst, DOff: 1, DS: 2, Src: BufSrc, SOff: 1, SS: 2, Tree: leaf, Tw: tw1}, true},
		{"blocks in place",
			CodeletCall{Dst: BufDst, DOff: 8, DS: 1, Src: BufSrc, SOff: 8, SS: 1, Tree: leaf},
			CodeletCall{Dst: BufDst, DOff: 0, DS: 1, Src: BufSrc, SOff: 0, SS: 1, Tree: leaf}, true},
		{"one call scaled, one not",
			CodeletCall{Dst: BufDst, DOff: 0, DS: 2, Src: BufSrc, SOff: 0, SS: 2, Tree: leaf, Tw: tw0},
			CodeletCall{Dst: BufDst, DOff: 1, DS: 2, Src: BufSrc, SOff: 1, SS: 2, Tree: leaf}, false},
	}
	for _, c := range cases {
		e, err := NewExecutor(twoCalls(c.a, c.b, false), nil)
		if err != nil {
			t.Fatal(err)
		}
		ref, err := NewExecutor(twoCalls(c.a, c.b, true), nil)
		if err != nil {
			t.Fatal(err)
		}
		if got := countKinds(e, 0)[0][opCodeletPair] == 1; got != c.paired {
			t.Errorf("%s: paired %v, want %v", c.name, got, c.paired)
		}
		x := randVec(16, rng)
		want, got := make([]complex128, 16), make([]complex128, 16)
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
