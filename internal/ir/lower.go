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
func LowerTree(t *exec.Tree) (*Program, error) { return lowerTree(t, false) }

// LowerTreeInverse lowers the unitary inverse of the sequential DFT plan t
// (see inverseScale). A composite root folds the inverse into its own two
// stages, as LowerCT does for formula (14) on one worker; a leaf root is
// LowerTree's single call taking the length-n scale in its loads.
func LowerTreeInverse(t *exec.Tree) (*Program, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if !t.Leaf {
		return LowerCT(t.N, t.Left.N, CTConfig{P: 1, Mu: 1, LeftTree: t.Left, RightTree: t.Right, Inverse: true})
	}
	return lowerTree(t, true)
}

func lowerTree(t *exec.Tree, inverse bool) (*Program, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	var scale []complex128
	if inverse {
		scale = inverseScale(t.N, 1/float64(t.N))
	}
	return &Program{
		Name: dirName("dft-seq", inverse),
		N:    t.N,
		P:    1,
		Mu:   1,
		Nodes: []Node{&Region{
			Name:    "dft",
			Workers: [][]Op{{signalCall(t, BufDst, BufSrc, 0, scale)}},
		}},
	}, nil
}

// Inverse lowerings. Every inverse program runs the forward program's
// stages, re-parameterized by the identity
//
//	n·IDFT_n = J_n · DFT_n · diag(ω_n^j),
//
// where J_n is the anti-identity (index j ↦ n-1-j). The diagonal becomes an
// input scale fused into the first stage's codelet loads (with the 1/n
// normalization folded in), and J_n, being affine, becomes a negative
// output stride in the last stage. No stage, pass or N-element table is
// added: an inverse program has the forward's regions, barriers and op
// counts (the one exception, a sequential tree with a composite root, runs
// its root's two stages as IR regions; see LowerTreeInverse).

// inverseScale returns ω_n^j·s for j < n: the diagonal of the identity above
// with the normalization s folded in.
func inverseScale(n int, s float64) []complex128 {
	w := make([]complex128, n)
	for j := range w {
		v := twiddle.Omega(n, j)
		w[j] = complex(real(v)*s, imag(v)*s)
	}
	return w
}

// signalCall is the codelet call transforming one contiguous signal
// [off, off+n) of src into dst. With a non-nil inverse scale it computes the
// inverse instead: the scale rides in the loads and the output is written
// reversed (J_n as stride -1 from the signal's last element).
func signalCall(t *exec.Tree, dst, src Buf, off int, scale []complex128) CodeletCall {
	c := CodeletCall{Dst: dst, DOff: off, DS: 1, Src: src, SOff: off, SS: 1, Tree: t}
	if scale != nil {
		c.DOff, c.DS, c.Tw = off+t.N-1, -1, scale
	}
	return c
}

// dirName names a program of the given direction.
func dirName(name string, inverse bool) string {
	if inverse {
		return name + "-inverse"
	}
	return name
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
	// Inverse lowers the unitary inverse DFT_n^{-1} with the same stages:
	// stage 1 scales its loads by ω_k^l/n, stage 2 reads twiddle column j+1
	// in place of j (column k is ω_m^i) and writes dst reversed.
	Inverse bool
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
	// The inverse (see inverseScale): input x[i + m·l] carries ω_n^i·ω_k^l/n.
	// Stage 1's iteration i loads x[i::m], so ω_k^l/n is one shared scale,
	// and the constant ω_n^i passes through DFT_k into row i of t0, where
	// stage 2 meets it: column j's twiddle ω_n^{i·j} becomes ω_n^{i·(j+1)},
	// column j+1. Output j + i·k lands at n-1-j - i·k.
	var inScale, lastCol []complex128
	column := func(j int) []complex128 { return tw[j*m : (j+1)*m] }
	if cfg.Inverse {
		inScale = inverseScale(k, 1/float64(n))
		lastCol = twiddle.Roots(m) // column k: ω_n^{i·k} = ω_m^i
		column = func(j int) []complex128 {
			if j+1 == k {
				return lastCol
			}
			return tw[(j+1)*m : (j+2)*m]
		}
	}
	t0 := TempBuf(0)
	stage1 := &Region{Name: "stage1", Workers: make([][]Op, cfg.P)}
	stage2 := &Region{Name: "stage2", Workers: make([][]Op, cfg.P)}
	for w := 0; w < cfg.P; w++ {
		for _, i := range scheduleIters(m, cfg.P, w, cfg.Schedule) {
			stage1.Workers[w] = append(stage1.Workers[w],
				CodeletCall{Dst: t0, DOff: i * k, DS: 1, Src: BufSrc, SOff: i, SS: m, Tree: rt, Tw: inScale})
		}
		for _, j := range scheduleIters(k, cfg.P, w, cfg.Schedule) {
			c := CodeletCall{Dst: BufDst, DOff: j, DS: k, Src: t0, SOff: j, SS: k, Tree: lt, Tw: column(j)}
			if cfg.Inverse {
				c.DOff, c.DS = n-1-j, -k
			}
			stage2.Workers[w] = append(stage2.Workers[w], c)
		}
	}
	return &Program{
		Name:  dirName("multicore-ct", cfg.Inverse),
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
	return lowerBatch(tree, count, workers, false)
}

// LowerBatchInverse lowers the per-signal unitary inverse of LowerBatch's
// program: the same calls, each with the inverse folded in as in
// LowerTreeInverse (one shared length-n scale).
func LowerBatchInverse(tree *exec.Tree, count, workers int) (*Program, error) {
	return lowerBatch(tree, count, workers, true)
}

func lowerBatch(tree *exec.Tree, count, workers int, inverse bool) (*Program, error) {
	if err := tree.Validate(); err != nil {
		return nil, err
	}
	if count < 1 || workers < 1 || workers > count {
		return nil, fmt.Errorf("ir: LowerBatch count=%d workers=%d", count, workers)
	}
	n := tree.N
	var scale []complex128
	if inverse {
		scale = inverseScale(n, 1/float64(n))
	}
	reg := &Region{Name: "batch", Workers: make([][]Op, workers)}
	for w := 0; w < workers; w++ {
		lo, hi := smp.BlockRange(count, workers, w)
		for s := lo; s < hi; s++ {
			reg.Workers[w] = append(reg.Workers[w], signalCall(tree, BufDst, BufSrc, s*n, scale))
		}
	}
	return &Program{Name: dirName("batch", inverse), N: n * count, P: workers, Mu: 1, Nodes: []Node{reg}}, nil
}

// Lower2D lowers the separable 2D DFT of a rows×cols row-major array
// (DFT_rows ⊗ DFT_cols): a row stage over contiguous row blocks (rule (9)),
// a barrier, and a column stage over contiguous µ-aligned column blocks
// (rule (7)) running in place on dst.
func Lower2D(rows, cols, p int, rowTree, colTree *exec.Tree) (*Program, error) {
	return lower2D(rows, cols, p, rowTree, colTree, false)
}

// Lower2DInverse lowers the unitary 2D inverse with Lower2D's stages: the
// row stage carries ω_cols^c/(rows·cols) and J_cols (each row written
// reversed), the column stage ω_rows^r and J_rows (each column written
// reversed onto itself, so it stays in place on dst).
func Lower2DInverse(rows, cols, p int, rowTree, colTree *exec.Tree) (*Program, error) {
	return lower2D(rows, cols, p, rowTree, colTree, true)
}

func lower2D(rows, cols, p int, rowTree, colTree *exec.Tree, inverse bool) (*Program, error) {
	if rows < 1 || cols < 1 || p < 1 {
		return nil, fmt.Errorf("ir: Lower2D %d×%d p=%d", rows, cols, p)
	}
	if rowTree.N != cols || colTree.N != rows {
		return nil, fmt.Errorf("ir: Lower2D tree sizes %d/%d do not match %d×%d", rowTree.N, colTree.N, rows, cols)
	}
	var rowScale, colScale []complex128
	if inverse {
		rowScale = inverseScale(cols, 1/float64(rows*cols))
		colScale = inverseScale(rows, 1)
	}
	rowStage := &Region{Name: "rows", Workers: make([][]Op, p)}
	colStage := &Region{Name: "cols", Workers: make([][]Op, p)}
	for w := 0; w < p; w++ {
		lo, hi := smp.BlockRange(rows, p, w)
		for r := lo; r < hi; r++ {
			rowStage.Workers[w] = append(rowStage.Workers[w], signalCall(rowTree, BufDst, BufSrc, r*cols, rowScale))
		}
		lo, hi = smp.BlockRange(cols, p, w)
		for c := lo; c < hi; c++ {
			op := CodeletCall{Dst: BufDst, DOff: c, DS: cols, Src: BufDst, SOff: c, SS: cols, Tree: colTree}
			if inverse {
				op.DOff, op.DS, op.Tw = c+(rows-1)*cols, -cols, colScale
			}
			colStage.Workers[w] = append(colStage.Workers[w], op)
		}
	}
	return &Program{
		Name:  dirName("dft2d", inverse),
		N:     rows * cols,
		P:     p,
		Mu:    1,
		Nodes: []Node{rowStage, Barrier{}, colStage},
	}, nil
}

// WHTSplit returns the split 2^k = 2^a · 2^{k−a} of the parallel WHT_n on
// p workers with cache-line length mu: a = log2 p, so the program is
//
//	WHT_n = (WHT_p ⊗ I_{n/p}) · (I_p ⊗∥ WHT_{n/p}),
//
// one in-cache WHT_{n/p} per worker, then one butterfly pass over each
// worker's column range of the p rows. The WHT has no twiddles and no
// stride permutation, so nothing is gained by balancing the factors; the
// smallest left factor keeps stage 1 contiguous and stage 2 a single pass.
// The split is admissible (rules (7) and (9): p | 2^a, pµ | 2^{k−a}) when p
// is a power of two ≥ 2 and pµ divides n/p. It is taken only when (pµ)²
// divides n, the size floor of exec.SplitFor: smaller WHTs stay sequential,
// where two regions and a barrier cost more than they save. ok is false
// when no split is taken. Every
// WHT consumer (LowerWHT, the plan's Formula, codegen, spiralgen) takes its
// split from here.
func WHTSplit(n, p, mu int) (a int, ok bool) {
	if p < 2 || p&(p-1) != 0 || mu < 1 || n < 2 || n&(n-1) != 0 || n%(p*p*mu*mu) != 0 {
		return 0, false
	}
	for v := p; v > 1; v >>= 1 {
		a++
	}
	return a, true
}

// LowerWHT lowers the Walsh-Hadamard transform WHT_n. For p > 1 with an
// admissible WHTSplit it emits the two-stage multicore schedule; otherwise
// a single sequential WHT call (the program's P is then 1 regardless of the
// requested p).
func LowerWHT(n, p, mu int) (*Program, error) { return lowerWHT(n, p, mu, 0) }

// LowerWHTInverse lowers the inverse WHT, WHT_n/n: LowerWHT's program with
// the 1/n folded into the last stage's calls.
func LowerWHTInverse(n, p, mu int) (*Program, error) { return lowerWHT(n, p, mu, 1/float64(n)) }

// lowerWHT lowers WHT_n with its last stage scaled by scale (0: unscaled).
func lowerWHT(n, p, mu int, scale float64) (*Program, error) {
	if n < 2 || n&(n-1) != 0 {
		return nil, fmt.Errorf("ir: LowerWHT size %d not a power of two ≥ 2", n)
	}
	if mu < 1 {
		mu = 4
	}
	inverse := scale != 0
	a, ok := WHTSplit(n, p, mu)
	if !ok {
		return &Program{
			Name: dirName("wht-seq", inverse),
			N:    n,
			P:    1,
			Mu:   mu,
			Nodes: []Node{&Region{
				Name:    "wht",
				Workers: [][]Op{{WHTCall{Dst: BufDst, DS: 1, Src: BufSrc, SS: 1, N: n, Scale: scale}}},
			}},
		}, nil
	}
	q := n >> a // n/p
	stage1 := &Region{Name: "stage1", Workers: make([][]Op, p)}
	stage2 := &Region{Name: "stage2", Workers: make([][]Op, p)}
	for w := 0; w < p; w++ {
		// Stage 1: I_p ⊗∥ WHT_q — worker w's contiguous block, src to dst.
		stage1.Workers[w] = []Op{WHTCall{Dst: BufDst, DOff: w * q, DS: 1, Src: BufSrc, SOff: w * q, SS: 1, N: q}}
		// Stage 2: WHT_p ⊗ I_q in place on dst, split into µ-aligned column
		// ranges: worker w runs WHT_p ⊗ I_{q/p} on columns [lo, hi) of the
		// p rows of q points.
		lo, hi := smp.BlockRange(q, p, w)
		stage2.Workers[w] = []Op{WHTCall{Dst: BufDst, DOff: lo, DS: q, Src: BufDst, SOff: lo, SS: q, N: p, V: hi - lo, Scale: scale}}
	}
	return &Program{
		Name:  dirName("wht", inverse),
		N:     n,
		P:     p,
		Mu:    mu,
		Nodes: []Node{stage1, Barrier{}, stage2},
	}, nil
}
