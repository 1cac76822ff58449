package ir

import (
	"fmt"

	"spiralfft/internal/exec"
	"spiralfft/internal/smp"
	"spiralfft/internal/spl"
	"spiralfft/internal/twiddle"
)

// FromFormula lowers a fully optimized SPL formula (Definition 1 of the
// paper) into an IR program: one region per product factor, executed right
// to left with a barrier between factors, each factor statically scheduled
// across p workers exactly as the parallel tags prescribe —
//
//	P ⊗̄ I_µ   → per-worker Permute ops moving whole cache lines,
//	I_p ⊗∥ A  → p equal independent blocks, one per worker,
//	⊕∥ A_i    → p independent blocks, block i on worker i,
//	I_m ⊗ A   → m independent blocks distributed in contiguous runs,
//
// with block bodies lowered to typed ops (codelet calls, WHT calls, scales,
// permutes, copies) where the construct is recognized and Generic otherwise.
// Factors outside the fully optimized grammar run as a single worker-0 block
// (measurably unbalanced, by design — the cache simulator should see it).
//
// The raw program is a faithful stage-by-stage rendition of the formula;
// Fold (passes.go) then performs the paper's loop merging on it.
func FromFormula(f spl.Formula, p, mu int) (*Program, error) {
	if p < 1 || mu < 1 {
		return nil, fmt.Errorf("ir: FromFormula(p=%d, µ=%d)", p, mu)
	}
	if p > 1 {
		// The folding passes and the simulator index worker bitmasks.
		if p > 64 {
			return nil, fmt.Errorf("ir: FromFormula p=%d > 64", p)
		}
	}
	var factors []spl.Formula
	if c, ok := f.(spl.Compose); ok {
		factors = c.Factors
	} else {
		factors = []spl.Formula{f}
	}
	n := f.Size()
	s := len(factors)
	prog := &Program{Name: "formula", N: n, P: p, Mu: mu}
	// Stages ping-pong through at most two temps: stage j reads the previous
	// stage's output and writes TempBuf(j%2), except the last writes dst.
	ntemps := s - 1
	if ntemps > 2 {
		ntemps = 2
	}
	for i := 0; i < ntemps; i++ {
		prog.Temps = append(prog.Temps, n)
	}
	// Rightmost factor executes first.
	for j := 0; j < s; j++ {
		fac := factors[s-1-j]
		if fac.Size() != n {
			return nil, fmt.Errorf("ir: factor %s has size %d, formula has %d", fac, fac.Size(), n)
		}
		in := BufSrc
		if j > 0 {
			in = TempBuf((j - 1) % 2)
		}
		out := BufDst
		if j < s-1 {
			out = TempBuf(j % 2)
		}
		reg, err := lowerStage(fac, p, j, in, out)
		if err != nil {
			return nil, err
		}
		if j > 0 {
			prog.Nodes = append(prog.Nodes, Barrier{})
		}
		prog.Nodes = append(prog.Nodes, reg)
	}
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// lowerStage schedules one product factor across p workers.
func lowerStage(f spl.Formula, p, idx int, in, out Buf) (*Region, error) {
	size := f.Size()
	reg := &Region{Name: fmt.Sprintf("s%d", idx), Workers: make([][]Op, p)}
	switch t := f.(type) {
	case spl.BarTensor:
		// P ⊗̄ I_µ: a permutation of whole cache lines; each worker moves a
		// contiguous µ-aligned share of the output.
		src := spl.PermSource(t)
		for w := 0; w < p; w++ {
			lo, hi := smp.BlockRange(size, p, w)
			if lo == hi {
				continue
			}
			idxs := make([]int32, hi-lo)
			for k := lo; k < hi; k++ {
				idxs[k-lo] = int32(src(k))
			}
			reg.Workers[w] = append(reg.Workers[w], Permute{Dst: out, Src: in, Lo: lo, Idx: idxs})
		}
		return reg, nil
	case spl.TensorPar:
		if t.P == p {
			bs := t.A.Size()
			for w := 0; w < p; w++ {
				reg.Workers[w] = append(reg.Workers[w], lowerBlock(t.A, w*bs, in, out)...)
			}
			return reg, nil
		}
	case spl.DirectSumPar:
		if len(t.Terms) == p {
			off := 0
			for w, term := range t.Terms {
				reg.Workers[w] = append(reg.Workers[w], lowerBlock(term, off, in, out)...)
				off += term.Size()
			}
			return reg, nil
		}
	case spl.Tensor:
		// I_m ⊗ A: m independent blocks dealt to workers in contiguous runs.
		if im, ok := t.A.(spl.Identity); ok {
			bs := t.B.Size()
			for w := 0; w < p; w++ {
				lo, hi := smp.BlockRange(im.N, p, w)
				for i := lo; i < hi; i++ {
					reg.Workers[w] = append(reg.Workers[w], lowerBlock(t.B, i*bs, in, out)...)
				}
			}
			return reg, nil
		}
	}
	// Fallback: the whole factor on worker 0.
	reg.Workers[0] = lowerBlock(f, 0, in, out)
	return reg, nil
}

// lowerBlock lowers the block-diagonal application of f at offset off
// (dst[off : off+size] = f(src[off : off+size])) to typed ops.
func lowerBlock(f spl.Formula, off int, in, out Buf) []Op {
	size := f.Size()
	switch t := f.(type) {
	case spl.DFT:
		if tr := exec.RadixTree(t.N); tr.Validate() == nil {
			return []Op{CodeletCall{Dst: out, DOff: off, DS: 1, Src: in, SOff: off, SS: 1, Tree: tr}}
		}
	case spl.WHT:
		return []Op{WHTCall{Dst: out, DOff: off, DS: 1, Src: in, SOff: off, SS: 1, N: size}}
	case spl.Identity:
		return []Op{Copy{Dst: out, Src: in, DOff: off, SOff: off, N: size}}
	case spl.Diag:
		return []Op{Scale{Dst: out, Src: in, Off: off, W: t.D}}
	case spl.Twiddle:
		return []Op{Scale{Dst: out, Src: in, Off: off, W: twiddle.D(t.M, t.Nn)}}
	case spl.Stride:
		idxs := make([]int32, size)
		for k := 0; k < size; k++ {
			idxs[k] = int32(off + t.SrcIndex(k))
		}
		return []Op{Permute{Dst: out, Src: in, Lo: off, Idx: idxs}}
	case spl.Perm:
		idxs := make([]int32, size)
		for k := 0; k < size; k++ {
			idxs[k] = int32(off + t.Src(k))
		}
		return []Op{Permute{Dst: out, Src: in, Lo: off, Idx: idxs}}
	case spl.Tensor:
		// I_m ⊗ A: m contiguous sub-blocks.
		if im, ok := t.A.(spl.Identity); ok {
			bs := t.B.Size()
			var ops []Op
			for i := 0; i < im.N; i++ {
				ops = append(ops, lowerBlock(t.B, off+i*bs, in, out)...)
			}
			return ops
		}
		// A ⊗ I_k with A a DFT: k strided transforms through the executor;
		// with A a WHT: one row-form WHT over A's rows of k points.
		if ik, ok := t.B.(spl.Identity); ok {
			if w, ok := t.A.(spl.WHT); ok {
				k := ik.N
				return []Op{WHTCall{Dst: out, DOff: off, DS: k, Src: in, SOff: off, SS: k, N: w.Size(), V: k}}
			}
			if d, ok := t.A.(spl.DFT); ok {
				if tr := exec.RadixTree(d.N); tr.Validate() == nil {
					k := ik.N
					ops := make([]Op, k)
					for j := 0; j < k; j++ {
						ops[j] = CodeletCall{Dst: out, DOff: off + j, DS: k, Src: in, SOff: off + j, SS: k, Tree: tr}
					}
					return ops
				}
			}
		}
	}
	// Fallback: opaque block through the mini-compiler.
	return []Op{Generic{Dst: out, Src: in, DOff: off, SOff: off, F: f}}
}
