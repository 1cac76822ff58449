package ir

import (
	"math"

	"spiralfft/internal/exec"
	"spiralfft/internal/spl"
)

// Stage tracing: the cache simulator's view of a program. Every region is
// one barrier-separated stage; TraceAccesses reports each worker's shared
// buffer accesses in program order, and TraceWork its arithmetic work, which
// is exactly what the Definition-1 audits (false sharing, load balance)
// consume. Private per-worker scratch (codelet scratch, WHT gather columns,
// pre-scale buffers) is not reported — it cannot cause sharing.

// TraceStages returns the number of barrier-separated stages.
func (p *Program) TraceStages() int { return len(p.Regions()) }

// TraceStageName names stage s for reports.
func (p *Program) TraceStageName(s int) string { return p.Regions()[s].Name }

// TraceAccesses reports every shared-buffer access worker w performs in
// stage s: op by op in program order, each op's footprint reads and then its
// writes.
func (p *Program) TraceAccesses(s, w int, visit func(buf Buf, idx int, write bool)) {
	for _, op := range p.Regions()[s].Workers[w] {
		f := op.Footprint()
		f.Read.each(func(i int) { visit(f.Read.Buf, i, false) })
		f.Write.each(func(i int) { visit(f.Write.Buf, i, true) })
	}
}

// TraceWork estimates the arithmetic work (flops) worker w performs in
// stage s, using the standard 5·n·log2(n) cost for DFT calls, 2·n·log2(n)
// adds per row point for WHT calls, 6 flops per complex multiply for scales
// and fused twiddle vectors, and element moves for data movement. Used for
// the load-balance metrics.
func (p *Program) TraceWork(s, w int) float64 {
	work := 0.0
	for _, op := range p.Regions()[s].Workers[w] {
		work += opWork(op)
	}
	return work
}

func opWork(op Op) float64 {
	switch t := op.(type) {
	case CodeletCall:
		f := exec.FlopCount(t.Tree.N)
		if t.Tw != nil {
			f += 6 * float64(t.Tree.N)
		}
		return f * float64(max(t.V, 1))
	case CodeletGenCall:
		// The generated row costs the same 6 flops/element as a fused table
		// scale (the sincos generation itself is amortized hi/lo products).
		return (exec.FlopCount(t.Tree.N) + 6*float64(t.Tree.N)) * float64(max(t.V, 1))
	case Transpose:
		return float64((t.Hi - t.Lo) * t.Rows) // element moves
	case WHTCall:
		return 2 * float64(t.N*t.Width()) * math.Log2(float64(t.N))
	case Untangle:
		// Per bin: one complex multiply (6) and four adds with halving.
		return 10 * float64(2*(t.Hi-t.Lo))
	case Scale:
		return 6 * float64(len(t.W))
	case Permute:
		return float64(len(t.Idx))
	case Copy:
		return float64(t.N)
	case Generic:
		return FormulaOps(t.F)
	}
	return 0
}

// FormulaOps estimates flops for an SPL formula: the standard 5·n·log2(n)
// for DFTs, adds only for WHTs, 6 flops per complex multiply for diagonals,
// element moves for permutations.
func FormulaOps(f spl.Formula) float64 {
	switch t := f.(type) {
	case spl.DFT:
		if t.N == 1 {
			return 0
		}
		return exec.FlopCount(t.N)
	case spl.WHT:
		return 2 * float64(t.Size()) * float64(t.K) // adds only
	case spl.Identity:
		return 0
	case spl.Stride, spl.Perm:
		return float64(f.Size())
	case spl.Diag:
		return 6 * float64(f.Size()) // complex multiply
	case spl.Twiddle:
		return 6 * float64(f.Size())
	}
	switch t := f.(type) {
	case spl.Tensor:
		return float64(t.A.Size())*FormulaOps(t.B) + float64(t.B.Size())*FormulaOps(t.A)
	case spl.BarTensor:
		return float64(f.Size())
	case spl.TensorPar:
		return float64(t.P) * FormulaOps(t.A)
	}
	sum := 0.0
	for _, c := range f.Children() {
		sum += FormulaOps(c)
	}
	return sum
}
