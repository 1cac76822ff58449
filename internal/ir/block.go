package ir

import (
	"fmt"

	"spiralfft/internal/exec"
	"spiralfft/internal/spl"
)

// Block-body compilation for Generic ops. A Generic carries an arbitrary
// subformula (nested products after full expansion, exotic constructs
// outside the typed op grammar). Executing it through spl.Apply would mean
// O(n²) DFT leaves; this mini-compiler recognizes the constructs the
// rewriting system emits and lowers them onto the fast strided executor,
// falling back to reference semantics for anything else.
//
// Compiled blocks own captured scratch buffers, so a BlockFn must not be
// invoked concurrently with itself; the Executor serializes programs
// containing Generic ops for exactly this reason.

// BlockFn computes dst = F(src) for one block (len == F.Size()).
type BlockFn func(dst, src []complex128)

// CompileBlock returns an executor for f.
func CompileBlock(f spl.Formula) (BlockFn, error) {
	if f == nil {
		return nil, fmt.Errorf("ir: CompileBlock(nil)")
	}
	return compileBlock(f), nil
}

func compileBlock(f spl.Formula) BlockFn {
	switch t := f.(type) {
	case spl.DFT:
		seq, err := exec.NewSeq(exec.RadixTree(t.N))
		if err != nil {
			break
		}
		scratch := seq.NewScratch()
		return func(dst, src []complex128) {
			seq.Transform(dst, src, scratch)
		}
	case spl.WHT:
		return func(dst, src []complex128) {
			copy(dst, src)
			exec.WHTInPlace(dst)
		}
	case spl.Identity:
		return func(dst, src []complex128) {
			copy(dst, src)
		}
	case spl.Diag:
		d := t.D
		return func(dst, src []complex128) {
			for i := range d {
				dst[i] = d[i] * src[i]
			}
		}
	case spl.Tensor:
		// I_m ⊗ A: m contiguous sub-blocks.
		if im, ok := t.A.(spl.Identity); ok {
			inner := compileBlock(t.B)
			s := t.B.Size()
			return func(dst, src []complex128) {
				for i := 0; i < im.N; i++ {
					inner(dst[i*s:(i+1)*s], src[i*s:(i+1)*s])
				}
			}
		}
		// A ⊗ I_k with A a DFT: k strided transforms through the executor.
		if ik, ok := t.B.(spl.Identity); ok {
			if d, ok := t.A.(spl.DFT); ok {
				seq, err := exec.NewSeq(exec.RadixTree(d.N))
				if err != nil {
					break
				}
				scratch := seq.NewScratch()
				k := ik.N
				return func(dst, src []complex128) {
					for j := 0; j < k; j++ {
						seq.TransformStrided(dst, j, k, src, j, k, nil, scratch)
					}
				}
			}
		}
	case spl.Compose:
		fns := make([]BlockFn, len(t.Factors))
		for i, fac := range t.Factors {
			fns[i] = compileBlock(fac)
		}
		n := t.Size()
		cur := make([]complex128, n)
		nxt := make([]complex128, n)
		return func(dst, src []complex128) {
			copy(cur, src)
			for i := len(fns) - 1; i >= 0; i-- {
				fns[i](nxt, cur)
				cur, nxt = nxt, cur
			}
			copy(dst, cur)
		}
	}
	// Reference fallback (permutations, tags, exotic nodes).
	ff := f
	buf := make([]complex128, f.Size())
	return func(dst, src []complex128) {
		copy(buf, src)
		ff.Apply(dst, buf)
	}
}
