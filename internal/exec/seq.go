package exec

import (
	"fmt"
	"math"

	"spiralfft/internal/codelet"
	"spiralfft/internal/twiddle"
)

// node is a compiled factorization-tree node. It executes
//
//	dst[doff + i·ds] = DFT_n(w ⊙ src[soff + j·ss])
//
// recursively: an inner node runs the two fused loops of
// DFT_n = (DFT_m ⊗ I_k) · D_{m,k} · (I_m ⊗ DFT_k) · L^n_m with the stride
// permutation folded into stage-1 gathers and the twiddle diagonal folded
// into the stage-2 kernels (Spiral's loop merging). A stage over a leaf is
// one codelet loop call, I_m ⊗ DFT_k as one construct, which the generated
// kernels run several lanes per vector register.
type node struct {
	n      int
	kernel codelet.Kernel // leaf only
	leaf   bool
	// fuseW reports whether this subtree can apply a *strided* input scale
	// vector without a pre-pass: a leaf whose kernel has an ApplyW entry
	// point, or a composite whose stage-1 (right) spine can — the input
	// scale only touches stage-1 loads, so the left child is irrelevant.
	fuseW bool
	m, k  int
	left  *node
	right *node
	tw    []complex128 // D_{m,k} column tables, column j at [j·m, (j+1)·m)
	need  int          // scratch elements required by this subtree
}

// compile builds the executable node for a validated tree.
func compile(t *Tree, cache *twiddle.Cache) *node {
	if t.Leaf {
		k := leafKernel(t.N)
		return &node{n: t.N, leaf: true, kernel: k, fuseW: k.ApplyW != nil}
	}
	left := compile(t.Left, cache)
	right := compile(t.Right, cache)
	m, k := t.Left.N, t.Right.N
	nd := &node{
		n:     t.N,
		m:     m,
		k:     k,
		left:  left,
		right: right,
		tw:    cache.Columns(m, k),
		fuseW: right.fuseW,
	}
	// Scratch: the stage-1 output t (n elements) is live through stage 2;
	// stage 2 additionally needs a pre-scale buffer of m elements when the
	// left child is composite and cannot fuse the twiddle column itself
	// (leaves and fused subtrees absorb the twiddles into their loads).
	pre := 0
	if !left.leaf && !left.fuseW {
		pre = m
	}
	childNeed := right.need
	if pre+left.need > childNeed {
		childNeed = pre + left.need
	}
	nd.need = t.N + childNeed
	return nd
}

// apply executes the node. w is an optional per-input scale vector: input j
// is scaled by w[woff + j·ws]. Leaves accept any w; a composite node accepts
// a non-nil w only when its fuseW flag is set (the stage-1 spine then folds
// the scale into its kernels' loads) — otherwise callers pre-scale, which
// compile's scratch accounting guarantees is possible.
func (nd *node) apply(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int, scratch []complex128) {
	if nd.leaf {
		nd.kernel.Loop(dst, doff, ds, 0, src, soff, ss, 0, w, woff, ws, 0, 1)
		return
	}
	if w != nil && !nd.fuseW {
		panic("exec: composite node received twiddle vector")
	}
	m, k := nd.m, nd.k
	t := scratch[:nd.n]
	rest := scratch[nd.n:]
	// Stage 1: (I_m ⊗ DFT_k) · L^n_m — iteration i gathers src at stride m·ss
	// from offset i·ss and writes the contiguous block t[i·k : (i+1)·k).
	// A fused input scale rides along: iteration i's inputs are the overall
	// inputs i, i+m, i+2m, …, so its twiddle window starts at woff + i·ws
	// with stride m·ws. A leaf runs all m iterations as one loop call
	// (DFT_k ⊗ I_m): they read and write disjoint elements, and t is
	// neither src nor dst.
	if nd.right.leaf {
		nd.right.kernel.Loop(t, 0, 1, k, src, soff, m*ss, ss, w, woff, m*ws, ws, m)
	} else {
		for i := 0; i < m; i++ {
			nd.right.apply(t, i*k, 1, src, soff+i*ss, m*ss, w, woff+i*ws, m*ws, rest)
		}
	}
	// Stage 2: (DFT_m ⊗ I_k) · D_{m,k} — iteration j reads column j of t at
	// stride k, scales by twiddle column j (fused into the kernels or the
	// subtree whenever possible), writes dst at stride k·ds. A leaf runs
	// all k columns as one loop call.
	if nd.left.leaf {
		nd.left.kernel.Loop(dst, doff, k*ds, ds, t, 0, k, 1, nd.tw, 0, 1, m, k)
	} else if nd.left.fuseW {
		for j := 0; j < k; j++ {
			nd.left.apply(dst, doff+j*ds, k*ds, t, j, k, nd.tw, j*m, 1, rest)
		}
	} else {
		pre := rest[:m]
		childScratch := rest[m:]
		for j := 0; j < k; j++ {
			prescale(pre, t, j, k, nd.tw[j*m:(j+1)*m])
			nd.left.apply(dst, doff+j*ds, k*ds, pre, 0, 1, nil, 0, 1, childScratch)
		}
	}
}

// prescale sets pre[i] = src[soff + i·ss]·w[i]: the pre-pass of a scaled
// transform whose stage-1 spine cannot fuse the scale.
func prescale(pre, src []complex128, soff, ss int, w []complex128) {
	for i := range pre {
		pre[i] = src[soff+i*ss] * w[i]
	}
}

// Seq is a compiled sequential DFT plan.
type Seq struct {
	n    int
	tree *Tree
	root *node
}

// NewSeq compiles the factorization tree into a sequential plan. The twiddle
// tables come from the process-wide cache, so plans for equal splits share
// them.
func NewSeq(t *Tree) (*Seq, error) {
	if err := t.Validate(); err != nil {
		return nil, err
	}
	return &Seq{n: t.N, tree: t, root: compile(t, twiddle.GlobalCache())}, nil
}

// MustNewSeq is NewSeq for known-good trees (panics on error).
func MustNewSeq(t *Tree) *Seq {
	s, err := NewSeq(t)
	if err != nil {
		panic(err)
	}
	return s
}

// N returns the transform size.
func (s *Seq) N() int { return s.n }

// Tree returns the factorization tree the plan was compiled from.
func (s *Seq) Tree() *Tree { return s.tree }

// ScratchLen returns the scratch length Transform and an unscaled
// TransformStrided require.
func (s *Seq) ScratchLen() int { return s.root.need }

// ScaledScratchLen returns the scratch length TransformStrided requires with
// an input scale: n more than ScratchLen when the root cannot fuse it.
func (s *Seq) ScaledScratchLen() int {
	if s.prescales() {
		return s.n + s.root.need
	}
	return s.root.need
}

// prescales reports whether a scaled call pre-scales its input: the root is
// composite and its stage-1 spine has no fused-twiddle (ApplyW) kernels.
func (s *Seq) prescales() bool { return !s.root.leaf && !s.root.fuseW }

// NewScratch allocates a scratch buffer for Transform. Scratch buffers must
// not be shared between concurrent Transform calls.
func (s *Seq) NewScratch() []complex128 { return make([]complex128, s.root.need) }

// Transform computes dst = DFT_n(src). dst == src is allowed (the transform
// is internally out-of-place into scratch). scratch may be nil, in which
// case a temporary is allocated.
func (s *Seq) Transform(dst, src []complex128, scratch []complex128) {
	if len(dst) != s.n || len(src) != s.n {
		panic(fmt.Sprintf("exec: Seq.Transform length mismatch: plan %d, dst %d, src %d", s.n, len(dst), len(src)))
	}
	if scratch == nil {
		scratch = s.NewScratch()
	} else if len(scratch) < s.root.need {
		panic(fmt.Sprintf("exec: scratch too small: %d < %d", len(scratch), s.root.need))
	}
	s.root.apply(dst, 0, 1, src, 0, 1, nil, 0, 1, scratch)
}

// TransformStrided exposes the strided entry point used by the parallel
// executor: dst[doff + i·ds] = DFT_n(w ⊙ src[soff + j·ss]), w an optional
// length-n input scale. A leaf root or a fusing stage-1 spine applies w in
// its kernels' loads; any other root pre-scales into scratch[:n] and runs on
// scratch[n:], so a scaled call needs ScaledScratchLen elements of scratch.
func (s *Seq) TransformStrided(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, scratch []complex128) {
	if w != nil && s.prescales() {
		pre := scratch[:s.n]
		prescale(pre, src, soff, ss, w)
		src, soff, ss, w, scratch = pre, 0, 1, nil, scratch[s.n:]
	}
	s.root.apply(dst, doff, ds, src, soff, ss, w, 0, 1, scratch)
}

// Loop runs m transforms as TransformStrided does, transform i from
// soff+i·sl into doff+i·dl scaled by w[i·wl:] when w is non-nil: DFT_n ⊗
// I_m. A leaf plan runs them in one call of its kernel's loop entry. No
// transform may write what another reads or writes.
func (s *Seq) Loop(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w []complex128, wl, m int, scratch []complex128) {
	if s.root.leaf {
		s.root.kernel.Loop(dst, doff, ds, dl, src, soff, ss, sl, w, 0, 1, wl, m)
		return
	}
	for i := 0; i < m; i++ {
		s.TransformStrided(dst, doff+i*dl, ds, src, soff+i*sl, ss, w[i*wl:], scratch)
	}
}

// FlopCount returns the nominal 5·n·log2(n) flop count the paper's
// pseudo-Mflop/s metric assumes for this size.
func FlopCount(n int) float64 {
	return 5 * float64(n) * math.Log2(float64(n))
}
