package ir

import (
	"fmt"

	"spiralfft/internal/exec"
	"spiralfft/internal/smp"
	"spiralfft/internal/twiddle"
)

// This file contains the lowerings of the public plan families onto the IR.
// Every lowering runs the sequential executor's sub-plans (exec.Seq) in the
// same per-element operation order as the sequential execution of the same
// factorization, so the cross-validation tests can demand bit-identical
// output.

// LowerTree lowers a sequential DFT plan: one region, one worker, one
// codelet call src → dst.
func LowerTree(t *exec.Tree) (*Program, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &Program{
		Name: "dft-seq",
		N:    t.N,
		P:    1,
		Mu:   1,
		Nodes: []Node{&Region{
			Name:    "dft",
			Workers: [][]Op{{CodeletCall{Dst: BufDst, DS: 1, Src: BufSrc, SS: 1, Tree: t}}},
		}},
	}, nil
}

// Schedule selects how the loop iterations of a LowerCT stage are assigned
// to processors.
type Schedule int

const (
	// ScheduleBlock assigns each processor a contiguous block of
	// iterations — the schedule the rewriting system derives (formula (14)),
	// which aligns per-processor working sets to cache-line boundaries.
	ScheduleBlock Schedule = iota
	// ScheduleCyclic deals iterations round-robin, the way a naive
	// parallelization of the Cooley-Tukey loops distributes them. With
	// blocks smaller than a cache line, processors interleave within lines
	// and false sharing appears. Provided for the ablation experiments and
	// the FFTW-style baseline.
	ScheduleCyclic
)

// String names the schedule.
func (s Schedule) String() string {
	if s == ScheduleCyclic {
		return "cyclic"
	}
	return "block"
}

// CTConfig configures LowerCT.
type CTConfig struct {
	// P is the processor count (≥ 1).
	P int
	// Mu is the cache-line length µ in complex128 elements (default 4).
	Mu int
	// LeftTree and RightTree override the sub-plan factorizations
	// (default RadixTree).
	LeftTree, RightTree *exec.Tree
	// Schedule selects iteration assignment; default ScheduleBlock.
	Schedule Schedule
}

// LowerCT lowers the multicore Cooley-Tukey FFT (formula (14) of the paper)
// for DFT_n with top-level split n = m·k:
//
//	region stage1: per worker, its share of the m sub-DFT_k — iteration i
//	               gathers src[i::m] and writes the contiguous block
//	               t0[i·k:(i+1)·k)
//	barrier
//	region stage2: per worker, its share of the k twiddled sub-DFT_m —
//	               iteration j reads column t0[j::k], scales by twiddle
//	               column j, writes dst[j::k]
//
// The three stride permutations of formula (14) are already folded into the
// gather/scatter strides, and the twiddle direct sum into per-column Tw
// vectors — the IR form of the loop merging the recursive executor performs.
// Requires pµ | m and pµ | k under ScheduleBlock (the paper's applicability
// condition); ScheduleCyclic (ablation) only requires p ≤ m, k.
func LowerCT(n, m int, cfg CTConfig) (*Program, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("ir: LowerCT with P=%d", cfg.P)
	}
	if cfg.Mu == 0 {
		cfg.Mu = 4
	}
	if m < 2 || n%m != 0 || n/m < 2 {
		return nil, fmt.Errorf("ir: invalid split %d = %d · %d", n, m, n/m)
	}
	k := n / m
	q := cfg.P * cfg.Mu
	if cfg.Schedule == ScheduleBlock && (m%q != 0 || k%q != 0) {
		return nil, fmt.Errorf("ir: split %d·%d violates pµ-divisibility (pµ=%d): formula (14) not applicable", m, k, q)
	}
	if cfg.Schedule == ScheduleCyclic && (m < cfg.P || k < cfg.P) {
		return nil, fmt.Errorf("ir: split %d·%d too small for p=%d", m, k, cfg.P)
	}
	lt := cfg.LeftTree
	if lt == nil {
		lt = exec.RadixTree(m)
	}
	rt := cfg.RightTree
	if rt == nil {
		rt = exec.RadixTree(k)
	}
	if lt.N != m || rt.N != k {
		return nil, fmt.Errorf("ir: sub-tree sizes %d/%d do not match split %d·%d", lt.N, rt.N, m, k)
	}
	tw := twiddle.GlobalCache().Columns(m, k)
	t0 := TempBuf(0)
	stage1 := &Region{Name: "stage1", Workers: make([][]Op, cfg.P)}
	stage2 := &Region{Name: "stage2", Workers: make([][]Op, cfg.P)}
	for w := 0; w < cfg.P; w++ {
		for _, i := range scheduleIters(m, cfg.P, w, cfg.Schedule) {
			stage1.Workers[w] = append(stage1.Workers[w],
				CodeletCall{Dst: t0, DOff: i * k, DS: 1, Src: BufSrc, SOff: i, SS: m, Tree: rt})
		}
		for _, j := range scheduleIters(k, cfg.P, w, cfg.Schedule) {
			stage2.Workers[w] = append(stage2.Workers[w],
				CodeletCall{Dst: BufDst, DOff: j, DS: k, Src: t0, SOff: j, SS: k, Tree: lt, Tw: tw[j*m : (j+1)*m]})
		}
	}
	return &Program{
		Name:  "multicore-ct",
		N:     n,
		P:     cfg.P,
		Mu:    cfg.Mu,
		Temps: []int{n},
		Nodes: []Node{stage1, Barrier{}, stage2},
	}, nil
}

// scheduleIters assigns worker w its iterations: a contiguous block (what
// the rewriting system derives) or cyclic dealing (the ablation schedule).
func scheduleIters(total, p, w int, sched Schedule) []int {
	if sched == ScheduleCyclic {
		return smp.CyclicIndices(total, p, w, 1)
	}
	lo, hi := smp.BlockRange(total, p, w)
	idx := make([]int, hi-lo)
	for i := range idx {
		idx[i] = lo + i
	}
	return idx
}

// LowerBatch lowers a batch of count independent DFTs (I_count ⊗ DFT_n,
// rule (9)): one region, each worker transforming a contiguous block of
// whole signals in place of the flat count·n vector.
func LowerBatch(tree *exec.Tree, count, workers int) (*Program, error) {
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	if count < 1 || workers < 1 || workers > count {
		return nil, fmt.Errorf("ir: LowerBatch count=%d workers=%d", count, workers)
	}
	n := tree.N
	reg := &Region{Name: "batch", Workers: make([][]Op, workers)}
	for w := 0; w < workers; w++ {
		lo, hi := smp.BlockRange(count, workers, w)
		for s := lo; s < hi; s++ {
			reg.Workers[w] = append(reg.Workers[w],
				CodeletCall{Dst: BufDst, DOff: s * n, DS: 1, Src: BufSrc, SOff: s * n, SS: 1, Tree: tree})
		}
	}
	return &Program{Name: "batch", N: n * count, P: workers, Mu: 1, Nodes: []Node{reg}}, nil
}

// Lower2D lowers the separable 2D DFT of a rows×cols row-major array
// (DFT_rows ⊗ DFT_cols): a row stage over contiguous row blocks (rule (9)),
// a barrier, and a column stage over contiguous µ-aligned column blocks
// (rule (7)) running in place on dst.
func Lower2D(rows, cols, p int, rowTree, colTree *exec.Tree) (*Program, error) {
	if rows < 1 || cols < 1 || p < 1 {
		return nil, fmt.Errorf("ir: Lower2D %d×%d p=%d", rows, cols, p)
	}
	if rowTree.N != cols || colTree.N != rows {
		return nil, fmt.Errorf("ir: Lower2D tree sizes %d/%d do not match %d×%d", rowTree.N, colTree.N, rows, cols)
	}
	rowStage := &Region{Name: "rows", Workers: make([][]Op, p)}
	colStage := &Region{Name: "cols", Workers: make([][]Op, p)}
	for w := 0; w < p; w++ {
		lo, hi := smp.BlockRange(rows, p, w)
		for r := lo; r < hi; r++ {
			rowStage.Workers[w] = append(rowStage.Workers[w],
				CodeletCall{Dst: BufDst, DOff: r * cols, DS: 1, Src: BufSrc, SOff: r * cols, SS: 1, Tree: rowTree})
		}
		lo, hi = smp.BlockRange(cols, p, w)
		for c := lo; c < hi; c++ {
			colStage.Workers[w] = append(colStage.Workers[w],
				CodeletCall{Dst: BufDst, DOff: c, DS: cols, Src: BufDst, SOff: c, SS: cols, Tree: colTree})
		}
	}
	return &Program{
		Name:  "dft2d",
		N:     rows * cols,
		P:     p,
		Mu:    1,
		Nodes: []Node{rowStage, Barrier{}, colStage},
	}, nil
}

// LowerWHT lowers the Walsh-Hadamard transform WHT_n. For p > 1 with an
// admissible split m·q (pµ dividing both factors) it emits the two-stage
// multicore schedule; otherwise a single sequential WHT call (the program's
// P is then 1 regardless of the requested p).
func LowerWHT(n, p, mu int) (*Program, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ir: LowerWHT size %d not a power of two ≥ 2", n)
	}
	if mu < 1 {
		mu = 4
	}
	seq := &Program{
		Name: "wht-seq",
		N:    n,
		P:    1,
		Mu:   mu,
		Nodes: []Node{&Region{
			Name:    "wht",
			Workers: [][]Op{{WHTCall{Dst: BufDst, DS: 1, Src: BufSrc, SS: 1, N: n}}},
		}},
	}
	if p <= 1 {
		return seq, nil
	}
	m, ok := exec.SplitFor(n, p, mu)
	if !ok {
		return seq, nil // no admissible split: sequential fallback
	}
	q := n / m
	t0 := TempBuf(0)
	stage1 := &Region{Name: "stage1", Workers: make([][]Op, p)}
	stage2 := &Region{Name: "stage2", Workers: make([][]Op, p)}
	for w := 0; w < p; w++ {
		// Stage 1: I_p ⊗∥ (I_{m/p} ⊗ WHT_q) — no stride permutation in the
		// WHT breakdown, so block i is the contiguous src[i·q:(i+1)·q).
		lo, hi := smp.BlockRange(m, p, w)
		for i := lo; i < hi; i++ {
			stage1.Workers[w] = append(stage1.Workers[w],
				WHTCall{Dst: t0, DOff: i * q, DS: 1, Src: BufSrc, SOff: i * q, SS: 1, N: q})
		}
		// Stage 2: I_p ⊗∥ (WHT_m ⊗ I_{q/p}) folded — iteration j transforms
		// column t0[j::q] into dst[j::q]; worker columns are µ-aligned.
		lo, hi = smp.BlockRange(q, p, w)
		for j := lo; j < hi; j++ {
			stage2.Workers[w] = append(stage2.Workers[w],
				WHTCall{Dst: BufDst, DOff: j, DS: q, Src: t0, SOff: j, SS: q, N: m})
		}
	}
	return &Program{
		Name:  "wht",
		N:     n,
		P:     p,
		Mu:    mu,
		Temps: []int{n},
		Nodes: []Node{stage1, Barrier{}, stage2},
	}, nil
}
