package ir

import (
	"fmt"

	"spiralfft/internal/exec"
	"spiralfft/internal/smp"
)

// This file lowers the four-step decomposition of enormous 1-D DFTs. For
// N = n1·n2,
//
//	DFT_N = (DFT_{n1} ⊗ I_{n2}) · D_{n1,n2} · (I_{n1} ⊗ DFT_{n2}) · L^N_{n1}
//
// is the same rule (1) the tree planner applies, scheduled as two passes
// over memory in panels, the ⊗ I_µ form of the paper's formula (14) and
// Definition 1. Each worker owns a µ-aligned range of columns, so worker
// boundaries never split a cache line; inside its range a pass runs panel
// ops W columns wide (PanelWidth): µ on the long side, up to 16µ on the
// short side of a lopsided split, so a row visit there reads up to 16
// adjacent lines. The column pass gathers adjacent columns of the input
// at once, so the stride permutation L^N_{n1} costs no pass of its own;
// the row pass works in place on adjacent columns of the n1×n2
// intermediate, so no transpose is left at all. Both passes stage their
// rows lane-major through O(µ·max(n1, n2)) worker scratch, so every lane
// FFT runs at stride 1 (see CodeletCall). The twiddle diagonal D_{n1,n2}
// is never materialized: each row-pass op generates its twiddle rows into
// worker scratch (CodeletGenCall → twiddle.FillRow), so resident twiddle
// state is O(n1 + n2).

// FourStepConfig configures LowerFourStep.
type FourStepConfig struct {
	// P is the processor count (≥ 1).
	P int
	// Mu is the cache-line length µ in complex128 elements (default 4): the
	// grain of the workers' column ranges, and the unit of the panel ops'
	// widths (PanelWidth).
	Mu int
	// ColTree and RowTree override the sub-plan factorizations of the
	// column (DFT_{n2}) and row (DFT_{n1}) stages (default RadixTree).
	ColTree, RowTree *exec.Tree
	// Inverse lowers the unitary inverse with the same two regions (see
	// inverseScale in lower.go): the column FFTs scale their loads by
	// ω_{n2}^r/n and write their rows reversed, and the row FFT of
	// intermediate column c generates twiddle row n2-c and writes that
	// column reversed.
	Inverse bool
	// InPlace lowers a program that allows dst == src: the column pass
	// writes an n-element temp instead of dst, and the row pass reads it.
	// Without it the program has no temp, and dst must not overlap src.
	InPlace bool
}

// LowerFourStep lowers DFT_n with split n = n1·n2 as two regions of panel
// ops:
//
//	region col-fft: dst[i·n2 + j] = DFT_{n2}(src[i :: n1])_j,            i < n1
//	barrier
//	region row-fft: dst[t·n2 + j] = DFT_{n1}(ω_n^{j·i} ⊙ dst[i·n2 + j])_t, j < n2
//
// A column op of width v at a gathers src[a..a+v) at stride n1 and writes
// dst[a·n2 : (a+v)·n2); a row op at d gathers dst[d..d+v) at stride n2,
// generates twiddle rows d..d+v and scatters back to the same elements.
// This is element for element the map LowerCT computes for the same split.
// Workers partition each pass's µ-wide panels in contiguous blocks
// (panelRange), and each worker cuts its block into ops PanelWidth wide,
// the last one possibly narrower. For P > 1 both factors must be multiples
// of µ (every range is then whole lines, so worker boundaries never split
// a line) and at least P. For P = 1 a factor that is not a multiple of µ
// ends in a narrower op.
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
	mu := cfg.Mu
	if cfg.P > 1 {
		if n1%mu != 0 || n2%mu != 0 {
			return nil, fmt.Errorf("ir: four-step split %d·%d not µ-aligned (µ=%d)", n1, n2, mu)
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
	// passes through DFT_{n2} into element i of every row, where the row
	// twiddle ω_n^{j·i} becomes ω_n^{(j+1)·i}. Output t·n2 + j must land at
	// n-1-(t·n2 + j) = (n1-1-t)·n2 + (n2-1-j). The column pass writes
	// DFT_{n2} output j to column n2-1-j, so the row pass reads column c =
	// n2-1-j, generates row j+1 = n2-c, and writes its output t to row
	// n1-1-t of the same column: each op stays in place on its panel. Its
	// lanes run right to left (lane stride -1), so the twiddle rows of one
	// panel still ascend with the lane.
	var colScale []complex128
	if cfg.Inverse {
		colScale = inverseScale(n2, 1/float64(n))
	}
	mid, temps := BufDst, []int(nil)
	if cfg.InPlace {
		mid, temps = TempBuf(0), []int{n}
	}
	colW, rowW := PanelWidth(n1, n2, mu), PanelWidth(n2, n1, mu)
	colFFT := &Region{Name: "col-fft", Workers: make([][]Op, cfg.P)}
	rowFFT := &Region{Name: "row-fft", Workers: make([][]Op, cfg.P)}
	for w := 0; w < cfg.P; w++ {
		// Column op [a, a+v): rows of v adjacent src elements at stride
		// n1 (the fused L^N_{n1}), each lane written as one contiguous row
		// of the n1×n2 intermediate.
		lo, hi := panelRange(n1, mu, cfg.P, w)
		for a := lo; a < hi; a += colW {
			v := min(colW, hi-a)
			c := CodeletCall{Dst: mid, DOff: a * n2, DS: 1, DV: n2, Src: BufSrc, SOff: a, SS: n1, SV: 1,
				V: v, Tree: ct, Tw: colScale}
			if cfg.Inverse {
				c.DOff, c.DS = a*n2+n2-1, -1
			}
			colFFT.Workers[w] = append(colFFT.Workers[w], c)
		}
		// Row op [d, d+v): v adjacent columns of the intermediate,
		// rows of v elements at stride n2, in place.
		lo, hi = panelRange(n2, mu, cfg.P, w)
		for d := lo; d < hi; d += rowW {
			v := min(rowW, hi-d)
			c := CodeletGenCall{Dst: BufDst, DOff: d, DS: n2, DV: 1, Src: mid, SOff: d, SS: n2, SV: 1,
				V: v, Tree: rt, TwDen: n, TwRow: d}
			if cfg.Inverse {
				last := d + v - 1
				c.SOff, c.SV = last, -1
				c.DOff, c.DS, c.DV = (n1-1)*n2+last, -n2, -1
				c.TwRow = n2 - last
			}
			rowFFT.Workers[w] = append(rowFFT.Workers[w], c)
		}
	}
	return &Program{
		Name:  dirName("four-step", cfg.Inverse),
		N:     n,
		P:     cfg.P,
		Mu:    mu,
		Temps: temps,
		Nodes: []Node{colFFT, Barrier{}, rowFFT},
	}, nil
}

// PanelWidth returns the width of a four-step pass's panel ops: the pass
// runs sub-FFTs of length s over the m columns of the other factor, and
// its ops are W = µ·min(16, ⌊max(m, s)/s⌋) columns wide. The short side
// of a lopsided split thus reads up to 16 lines per row visit while its
// staged panel, s·W elements, stays within µ·max(m, s) like the long
// side's µ-wide one; a square split keeps µ on both passes. Worker ranges
// stay µ-aligned (panelRange); only the ops inside them widen.
func PanelWidth(m, s, mu int) int {
	return mu * min(16, max(m, s)/s)
}

// panelRange returns the columns [lo, hi) of worker w's panels: the µ-wide
// panels of [0, n) split over p workers in contiguous blocks. When µ does
// not divide n, the last panel is the narrower remainder.
func panelRange(n, mu, p, w int) (lo, hi int) {
	lo, hi = smp.BlockRange((n+mu-1)/mu, p, w)
	return lo * mu, min(hi*mu, n)
}
