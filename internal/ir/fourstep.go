package ir

import (
	"fmt"

	"spiralfft/internal/exec"
	"spiralfft/internal/smp"
)

// This file lowers the four-step (six-step with both transposes explicit)
// decomposition of enormous 1-D DFTs. For N = n1·n2,
//
//	DFT_N = (DFT_{n1} ⊗ I_{n2}) · D_{n1,n2} · (I_{n1} ⊗ DFT_{n2}) · L^N_{n1}
//
// is the same rule (1) the tree planner applies, but scheduled so every
// sub-FFT reads and writes contiguous memory: the initial stride permutation
// is fused into the column-FFT gathers, and the two remaining
// redistributions are explicit cache-blocked transposes. At sizes whose
// stage buffers dwarf every cache this wins over the tree schedule, whose
// stage-2 column walks (stride n2) fetch one line per element across the
// whole N-element buffer; the blocked transpose pays that redistribution
// once, µ elements per line. The twiddle diagonal D_{n1,n2} is never
// materialized: each row-FFT op generates its n1-element row chunk into
// worker scratch (CodeletGenCall → twiddle.FillRow), so resident twiddle
// state is O(n1 + n2) rather than O(N).

// FourStepConfig configures LowerFourStep.
type FourStepConfig struct {
	// P is the processor count (≥ 1).
	P int
	// Mu is the cache-line length µ in complex128 elements (default 4).
	Mu int
	// Tile is the transpose tile edge (0 = executor default).
	Tile int
	// ColTree and RowTree override the sub-plan factorizations of the
	// column (DFT_{n2}) and row (DFT_{n1}) stages (default RadixTree).
	ColTree, RowTree *exec.Tree
	// Inverse lowers the unitary inverse with the same four regions (see
	// inverseScale in lower.go): the column FFTs scale their loads by
	// ω_{n2}^r/n, row j's FFT generates twiddle row j+1 and writes row
	// n2-1-j reversed; the transposes are unchanged.
	Inverse bool
}

// LowerFourStep lowers DFT_n with split n = n1·n2 as the four-step schedule:
//
//	region col-fft:       t0[i·n2 : (i+1)·n2) = DFT_{n2}(src[i :: n1]),  i < n1
//	barrier
//	region transpose:     dst[j·n1 + i] = t0[i·n2 + j]                   (t0 is n1×n2)
//	barrier
//	region row-fft:       t0[j·n1 : (j+1)·n1) = DFT_{n1}(ω_n^{j·i} ⊙ dst[j·n1 : (j+1)·n1))
//	barrier
//	region transpose-out: dst[t·n2 + j] = t0[j·n1 + t]                   (t0 is n2×n1)
//
// which is element-for-element the map LowerCT computes for the same split
// (the cross-validation tests demand bit-identical output). dst == src is
// allowed: dst is first written after src is fully consumed. Workers
// partition rows of each stage; for P > 1 both factors must be multiples of
// µ (rows are then line-aligned, so worker boundaries never split a line)
// and at least P.
func LowerFourStep(n, n1 int, cfg FourStepConfig) (*Program, error) {
	if cfg.P < 1 {
		return nil, fmt.Errorf("ir: LowerFourStep with P=%d", cfg.P)
	}
	if cfg.Mu == 0 {
		cfg.Mu = 4
	}
	if n1 < 2 || n%n1 != 0 || n/n1 < 2 {
		return nil, fmt.Errorf("ir: invalid four-step split %d = %d · %d", n, n1, n/n1)
	}
	n2 := n / n1
	if cfg.P > 1 {
		if n1%cfg.Mu != 0 || n2%cfg.Mu != 0 {
			return nil, fmt.Errorf("ir: four-step split %d·%d not µ-aligned (µ=%d)", n1, n2, cfg.Mu)
		}
		if n1 < cfg.P || n2 < cfg.P {
			return nil, fmt.Errorf("ir: four-step split %d·%d too small for p=%d", n1, n2, cfg.P)
		}
	}
	ct := cfg.ColTree
	if ct == nil {
		ct = exec.RadixTree(n2)
	}
	rt := cfg.RowTree
	if rt == nil {
		rt = exec.RadixTree(n1)
	}
	if ct.N != n2 || rt.N != n1 {
		return nil, fmt.Errorf("ir: four-step sub-tree sizes %d/%d do not match split %d·%d", ct.N, rt.N, n1, n2)
	}
	// The inverse: input x[i + n1·r] carries ω_n^i·ω_{n2}^r/n. Column op i
	// loads x[i::n1], so ω_{n2}^r/n is one shared scale; the constant ω_n^i
	// passes through DFT_{n2} and the transpose into element i of every
	// row, where the row twiddle ω_n^{j·i} becomes ω_n^{(j+1)·i}. Output
	// t·n2 + j must land at n-1-(t·n2 + j), which is where the second
	// transpose carries element n1-1-t of row n2-1-j.
	var colScale []complex128
	if cfg.Inverse {
		colScale = inverseScale(n2, 1/float64(n))
	}
	t0 := TempBuf(0)
	colFFT := &Region{Name: "col-fft", Workers: make([][]Op, cfg.P)}
	transA := &Region{Name: "transpose", Workers: make([][]Op, cfg.P)}
	rowFFT := &Region{Name: "row-fft", Workers: make([][]Op, cfg.P)}
	transB := &Region{Name: "transpose-out", Workers: make([][]Op, cfg.P)}
	for w := 0; w < cfg.P; w++ {
		// Column FFTs: iteration i gathers src[i :: n1] (the fused L^N_{n1})
		// and writes the contiguous row i of the n1×n2 panel t0.
		lo, hi := smp.BlockRange(n1, cfg.P, w)
		for i := lo; i < hi; i++ {
			colFFT.Workers[w] = append(colFFT.Workers[w],
				CodeletCall{Dst: t0, DOff: i * n2, DS: 1, Src: BufSrc, SOff: i, SS: n1, Tree: ct, Tw: colScale})
		}
		// Transpose t0 (n1×n2) into dst as n2×n1; workers own destination
		// row bands [lo,hi) ⊆ [0,n2), so writes are contiguous.
		lo, hi = smp.BlockRange(n2, cfg.P, w)
		if hi > lo {
			transA.Workers[w] = append(transA.Workers[w],
				Transpose{Dst: BufDst, Src: t0, Rows: n1, Cols: n2, Lo: lo, Hi: hi, Tile: cfg.Tile})
		}
		// Row FFTs: row j is contiguous in dst; the twiddle row
		// ω_n^{j·i} (i < n1) is generated into scratch, never tabulated.
		for j := lo; j < hi; j++ {
			c := CodeletGenCall{Dst: t0, DOff: j * n1, DS: 1, Src: BufDst, SOff: j * n1, SS: 1,
				Tree: rt, TwDen: n, TwRow: j}
			if cfg.Inverse {
				c.DOff, c.DS, c.TwRow = (n2-j)*n1-1, -1, j+1
			}
			rowFFT.Workers[w] = append(rowFFT.Workers[w], c)
		}
		// Transpose t0 (now n2×n1) into dst: dst[t·n2+j] = t0[j·n1+t].
		lo, hi = smp.BlockRange(n1, cfg.P, w)
		if hi > lo {
			transB.Workers[w] = append(transB.Workers[w],
				Transpose{Dst: BufDst, Src: t0, Rows: n2, Cols: n1, Lo: lo, Hi: hi, Tile: cfg.Tile})
		}
	}
	return &Program{
		Name:  dirName("four-step", cfg.Inverse),
		N:     n,
		P:     cfg.P,
		Mu:    cfg.Mu,
		Temps: []int{n},
		Nodes: []Node{colFFT, Barrier{}, transA, Barrier{}, rowFFT, Barrier{}, transB},
	}, nil
}
