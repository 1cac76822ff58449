// Package ir is the shared stage-plan intermediate representation every plan
// family lowers into, and the meeting point of the library's three backends:
//
//   - the executor (compile.go) runs IR stages through the existing codelets
//     and the smp threading substrate,
//   - the program generator (internal/codegen) walks the IR to emit
//     standalone Go for any lowered plan,
//   - the cache simulator (internal/cachesim) traces IR stages, so the
//     Definition-1 audits (false sharing, load balance) run against the
//     production plans rather than only the formula path.
//
// A Program is a sequence of parallel regions separated by barriers. Each
// region assigns every worker an ordered list of typed ops: codelet calls
// (strided sub-DFTs with optional fused twiddle scale), WHT calls, twiddle
// scales, stride/explicit permutations, copies, the real-input untangle
// pass, and an opaque formula fallback. The lowering pipeline is
//
//	spl formula → rewrite → ir.Lower* / ir.FromFormula → {exec, codegen, cachesim}
//
// with the loop-merging optimizations of the paper (permutation and twiddle
// diagonal absorption into the adjacent compute stages) implemented as IR→IR
// passes in passes.go.
package ir

import (
	"fmt"
	"strings"

	"spiralfft/internal/exec"
	"spiralfft/internal/spl"
)

// Buf identifies one of a program's shared vectors. BufSrc and BufDst are
// the transform's input and output; TempBuf(i) names the i-th intermediate
// buffer declared in Program.Temps.
type Buf int

const (
	// BufSrc is the transform input vector (length Program.BufLen(BufSrc)).
	BufSrc Buf = 0
	// BufDst is the transform output vector (length Program.BufLen(BufDst)).
	BufDst Buf = 1
)

// TempBuf returns the Buf id of temp buffer i (i.e. Program.Temps[i]).
func TempBuf(i int) Buf { return Buf(2 + i) }

// IsTemp reports whether b names a temp buffer.
func (b Buf) IsTemp() bool { return b >= 2 }

// TempIndex returns the Temps index of a temp Buf.
func (b Buf) TempIndex() int { return int(b) - 2 }

// String names the buffer.
func (b Buf) String() string {
	switch b {
	case BufSrc:
		return "src"
	case BufDst:
		return "dst"
	default:
		return fmt.Sprintf("t%d", b.TempIndex())
	}
}

// ---------------------------------------------------------------------------
// Ops

// Op is one typed operation executed by one worker within a region.
type Op interface {
	isOp()
	// DstBuf and SrcBuf return the buffers the op writes and reads.
	DstBuf() Buf
	SrcBuf() Buf
	// String renders the op for diagnostics.
	String() string
}

// CodeletCall runs a compiled factorization tree as a strided sub-DFT:
//
//	dst[DOff + i·DS] = DFT_n(Tw ⊙ src[SOff + j·SS]),  n = Tree.N
//
// Tw, when non-nil, is a length-n input scale vector (a twiddle column
// absorbed into the call, the paper's loop merging). The executor fuses it
// into the leaf kernel when the tree root is a leaf and pre-scales into
// scratch otherwise — exactly the strategy of the recursive executor.
type CodeletCall struct {
	Dst, Src Buf
	DOff, DS int
	SOff, SS int
	Tree     *exec.Tree
	Tw       []complex128
}

func (CodeletCall) isOp()         {}
func (c CodeletCall) DstBuf() Buf { return c.Dst }
func (c CodeletCall) SrcBuf() Buf { return c.Src }

// N returns the sub-transform size.
func (c CodeletCall) N() int { return c.Tree.N }

func (c CodeletCall) String() string {
	tw := ""
	if c.Tw != nil {
		tw = " ⊙tw"
	}
	return fmt.Sprintf("dft%s %s[%d:%d] ← %s[%d:%d]%s", c.Tree, c.Dst, c.DOff, c.DS, c.Src, c.SOff, c.SS, tw)
}

// WHTCall runs a 2^k-point Walsh-Hadamard transform with strided I/O:
//
//	dst[DOff + i·DS] = Scale·WHT_N(src[SOff + j·SS])
//
// V > 1 is the row form WHT_N ⊗ I_V: the N "points" are rows of V
// contiguous elements, row i at dst[DOff + i·DS : DOff + i·DS + V] (and
// likewise src), with strides at least V. The butterflies then run on whole
// row slices, so a worker transforms its column range of the rows in place
// with no gather. V 0 or 1 is the plain transform. dst may be src when
// the offsets and strides match (in place); otherwise the two spans must
// not overlap.
//
// Scale 0 means 1. The inverse WHT sets Scale = 1/n on its last stage's
// calls, so the 1/n rides in the final butterfly pass.
type WHTCall struct {
	Dst, Src Buf
	DOff, DS int
	SOff, SS int
	N        int
	V        int
	Scale    float64
}

func (WHTCall) isOp()         {}
func (c WHTCall) DstBuf() Buf { return c.Dst }
func (c WHTCall) SrcBuf() Buf { return c.Src }

// Width returns the row width V, at least 1.
func (c WHTCall) Width() int { return max(c.V, 1) }

func (c WHTCall) String() string {
	sc, rows := "", ""
	if c.Scale != 0 {
		sc = fmt.Sprintf(" ·%g", c.Scale)
	}
	if c.V > 1 {
		rows = fmt.Sprintf("⊗I%d", c.V)
	}
	return fmt.Sprintf("wht%d%s %s[%d:%d] ← %s[%d:%d]%s", c.N, rows, c.Dst, c.DOff, c.DS, c.Src, c.SOff, c.SS, sc)
}

// Untangle is the real-input DFT's pre/post pass over the bin pairs
// (k, H-k), Lo ≤ k < Hi, of a packed half-size spectrum (H = N/2 complex
// points for a real DFT_N; the pairs are k ∈ [0, H/2], and k = 0 pairs with
// H). W[k] = ω_N^k for k ≤ H/2.
//
// Forward (Inverse false) turns the spectrum Z = DFT_H of the packed signal
// z[j] = x[2j] + i·x[2j+1] into the half spectrum X[0..H] of x:
//
//	X[k] = Fe + W[k]·Fo,   X[H-k] = conj(Fe - W[k]·Fo),
//	Fe = (Z[k] + conj Z[H-k])/2,   Fo = -i·(Z[k] - conj Z[H-k])/2,
//
// with X[0] = re Z[0] + im Z[0] and X[H] = re Z[0] - im Z[0]. dst holds H+1
// elements and may be src (each pair is read before it is written).
// Inverse is the exact reverse (retangling): it rebuilds Z from X[0..H],
// ignoring the imaginary parts of X[0] and X[H]:
//
//	Z[k] = Fe + i·Fo,   Z[H-k] = conj(Fe - i·Fo),
//	Fe = (X[k] + conj X[H-k])/2,   Fo = conj(W[k])·(X[k] - conj X[H-k])/2.
type Untangle struct {
	Dst, Src Buf
	H        int
	Lo, Hi   int
	W        []complex128
	Inverse  bool
}

func (Untangle) isOp()         {}
func (c Untangle) DstBuf() Buf { return c.Dst }
func (c Untangle) SrcBuf() Buf { return c.Src }
func (c Untangle) String() string {
	name := "untangle"
	if c.Inverse {
		name = "retangle"
	}
	return fmt.Sprintf("%s%d %s ← %s pairs[%d,%d)", name, 2*c.H, c.Dst, c.Src, c.Lo, c.Hi)
}

// Scale is a pointwise diagonal: dst[Off+i] = W[i]·src[Off+i] for i < len(W).
// Input and output positions coincide (it is a diagonal matrix block), which
// is what lets the folding pass absorb it into an adjacent CodeletCall.
type Scale struct {
	Dst, Src Buf
	Off      int
	W        []complex128
}

func (Scale) isOp()         {}
func (c Scale) DstBuf() Buf { return c.Dst }
func (c Scale) SrcBuf() Buf { return c.Src }
func (c Scale) String() string {
	return fmt.Sprintf("scale %s[%d:+%d] ← %s", c.Dst, c.Off, len(c.W), c.Src)
}

// Permute is an explicit-table permutation over an output range:
//
//	dst[Lo+t] = src[Idx[t]],  t < len(Idx)
//
// Idx holds absolute source indices. Stride permutations and ⊗̄ cache-line
// permutations lower to this form; the folding pass recognizes affine tables
// and absorbs them into the gather/scatter strides of adjacent codelet calls.
type Permute struct {
	Dst, Src Buf
	Lo       int
	Idx      []int32
}

func (Permute) isOp()         {}
func (c Permute) DstBuf() Buf { return c.Dst }
func (c Permute) SrcBuf() Buf { return c.Src }
func (c Permute) String() string {
	return fmt.Sprintf("perm %s[%d:+%d] ← %s[table]", c.Dst, c.Lo, len(c.Idx), c.Src)
}

// Copy moves a contiguous run: dst[DOff+i] = src[SOff+i] for i < N.
type Copy struct {
	Dst, Src Buf
	DOff     int
	SOff     int
	N        int
}

func (Copy) isOp()         {}
func (c Copy) DstBuf() Buf { return c.Dst }
func (c Copy) SrcBuf() Buf { return c.Src }
func (c Copy) String() string {
	return fmt.Sprintf("copy %s[%d:+%d] ← %s[%d]", c.Dst, c.DOff, c.N, c.Src, c.SOff)
}

// Generic applies an arbitrary SPL formula to a contiguous block:
//
//	dst[DOff : DOff+n] = F(src[SOff : SOff+n]),  n = F.Size()
//
// It is the fallback for formula constructs outside the typed grammar. The
// executor compiles it through the block mini-compiler (block.go); codegen
// rejects it; the tracer conservatively reports the whole block read and
// written.
type Generic struct {
	Dst, Src Buf
	DOff     int
	SOff     int
	F        spl.Formula
}

func (Generic) isOp()         {}
func (c Generic) DstBuf() Buf { return c.Dst }
func (c Generic) SrcBuf() Buf { return c.Src }
func (c Generic) String() string {
	return fmt.Sprintf("generic %s[%d:+%d] ← %s[%d] %s", c.Dst, c.DOff, c.F.Size(), c.Src, c.SOff, c.F)
}

// Transpose writes the transpose of a Rows×Cols row-major matrix held in
// src into dst as a Cols×Rows row-major matrix, restricted to destination
// rows (= source columns) j in [Lo, Hi):
//
//	dst[DOff + j·Rows + i] = src[SOff + i·Cols + j],  Lo ≤ j < Hi, 0 ≤ i < Rows
//
// The executor runs it cache-blocked with Tile×Tile tiles (0 means the
// default tile). Workers partition destination rows, so each worker's
// writes are contiguous runs — the blocked transpose between the column and
// row FFT stages of the four-step large-N decomposition, with false sharing
// confined to at most one line per worker boundary.
type Transpose struct {
	Dst, Src   Buf
	DOff, SOff int
	Rows, Cols int
	Lo, Hi     int
	Tile       int
}

func (Transpose) isOp()         {}
func (c Transpose) DstBuf() Buf { return c.Dst }
func (c Transpose) SrcBuf() Buf { return c.Src }
func (c Transpose) String() string {
	return fmt.Sprintf("transpose %s[%d+] ← %s[%d+] %dx%d cols[%d,%d) tile=%d",
		c.Dst, c.DOff, c.Src, c.SOff, c.Rows, c.Cols, c.Lo, c.Hi, c.Tile)
}

// CodeletGenCall is a CodeletCall whose input scale is generated at
// execution time instead of read from a table: element k of the scale is
// ω_TwDen^{TwRow·(TwOff+k)}, one row chunk of the D_{n1,n2} diagonal
// (TwDen = n1·n2) produced into per-worker scratch by twiddle.FillRow. The
// four-step large-N lowering uses it for the twiddled row-FFT stage so a
// DFT_{n1·n2} plan never materializes an N-element twiddle table — resident
// twiddle state is O(n1) per worker.
type CodeletGenCall struct {
	Dst, Src Buf
	DOff, DS int
	SOff, SS int
	Tree     *exec.Tree
	TwDen    int // modulus of the generated roots (the full transform size)
	TwRow    int // row of the diagonal (the panel index)
	TwOff    int // starting column offset within the row
}

func (CodeletGenCall) isOp()         {}
func (c CodeletGenCall) DstBuf() Buf { return c.Dst }
func (c CodeletGenCall) SrcBuf() Buf { return c.Src }

// N returns the sub-transform size.
func (c CodeletGenCall) N() int { return c.Tree.N }

func (c CodeletGenCall) String() string {
	return fmt.Sprintf("dft%s %s[%d:%d] ← %s[%d:%d] ⊙ω_%d^{%d·(%d+k)}",
		c.Tree, c.Dst, c.DOff, c.DS, c.Src, c.SOff, c.SS, c.TwDen, c.TwRow, c.TwOff)
}

// ---------------------------------------------------------------------------
// Nodes and programs

// Node is one element of a program: a parallel region or a barrier.
type Node interface{ isNode() }

// Region is a fork-join parallel region: worker w executes Workers[w]'s ops
// in order. Ops of different workers within one region are unordered with
// respect to each other (they run concurrently); a Barrier between regions
// orders them. len(Workers) always equals Program.P.
type Region struct {
	// Name labels the region in diagnostics, traces and profiles.
	Name    string
	Workers [][]Op
}

func (*Region) isNode() {}

// Barrier separates regions: all ops before it complete before any op after
// it starts, on every worker.
type Barrier struct{}

func (Barrier) isNode() {}

// Program is a lowered stage plan: the shared IR consumed by the executor,
// the program generator and the cache simulator.
type Program struct {
	// Name labels the program (pprof region label, codegen comments).
	Name string
	// N is the transform size: the length of BufSrc and BufDst unless
	// SrcN or DstN says otherwise.
	N int
	// SrcN and DstN, when nonzero, are the lengths of BufSrc and BufDst
	// (the real-input programs read n/2 and write n/2+1 elements, or the
	// reverse).
	SrcN, DstN int
	// P is the worker count; every region carries exactly P op lists.
	P int
	// Mu is the cache-line length in complex128 elements the lowering
	// assumed (scheduling granularity; consumed by the cache simulator).
	Mu int
	// Temps declares the intermediate buffers: TempBuf(i) has length Temps[i].
	Temps []int
	// Nodes is the program body: regions separated by barriers.
	Nodes []Node
}

// NumBufs returns how many distinct buffers the program uses (src, dst, temps).
func (p *Program) NumBufs() int { return 2 + len(p.Temps) }

// BufLen returns the element length of buffer b.
func (p *Program) BufLen(b Buf) int {
	switch {
	case b.IsTemp():
		return p.Temps[b.TempIndex()]
	case b == BufSrc && p.SrcN != 0:
		return p.SrcN
	case b == BufDst && p.DstN != 0:
		return p.DstN
	}
	return p.N
}

// Regions returns the program's regions in execution order.
func (p *Program) Regions() []*Region {
	var out []*Region
	for _, nd := range p.Nodes {
		if r, ok := nd.(*Region); ok {
			out = append(out, r)
		}
	}
	return out
}

// Validate checks structural invariants: region shape, buffer ids, and op
// spans within buffer bounds.
func (p *Program) Validate() error {
	if p.N < 1 || p.P < 1 || p.SrcN < 0 || p.DstN < 0 {
		return fmt.Errorf("ir: invalid program n=%d p=%d src=%d dst=%d", p.N, p.P, p.SrcN, p.DstN)
	}
	if len(p.Nodes) == 0 {
		return fmt.Errorf("ir: empty program")
	}
	prevBarrier := true // a leading barrier is as wrong as a doubled one
	for i, nd := range p.Nodes {
		switch t := nd.(type) {
		case Barrier:
			if prevBarrier {
				return fmt.Errorf("ir: node %d: barrier without preceding region", i)
			}
			prevBarrier = true
		case *Region:
			if len(t.Workers) != p.P {
				return fmt.Errorf("ir: region %q has %d worker lists, program has p=%d", t.Name, len(t.Workers), p.P)
			}
			for w, ops := range t.Workers {
				for _, op := range ops {
					if err := p.validateOp(op, w); err != nil {
						return fmt.Errorf("ir: region %q worker %d: %w", t.Name, w, err)
					}
				}
			}
			prevBarrier = false
		default:
			return fmt.Errorf("ir: node %d: unknown node type %T", i, nd)
		}
	}
	if prevBarrier {
		return fmt.Errorf("ir: trailing barrier")
	}
	return nil
}

func (p *Program) validateOp(op Op, w int) error {
	check := func(b Buf, off, stride, count int) error {
		if int(b) < 0 || int(b) >= p.NumBufs() {
			return fmt.Errorf("op %s: unknown buffer %d", op, int(b))
		}
		if count == 0 {
			return nil
		}
		last := off + (count-1)*stride
		lo, hi := off, last
		if hi < lo {
			lo, hi = hi, lo
		}
		if lo < 0 || hi >= p.BufLen(b) {
			return fmt.Errorf("op %s: span [%d,%d] outside %s (len %d)", op, lo, hi, b, p.BufLen(b))
		}
		return nil
	}
	switch t := op.(type) {
	case CodeletCall:
		if t.Tree == nil {
			return fmt.Errorf("codelet call without tree")
		}
		if err := t.Tree.Validate(); err != nil {
			return err
		}
		if t.Tw != nil && len(t.Tw) != t.Tree.N {
			return fmt.Errorf("op %s: tw length %d, want %d", op, len(t.Tw), t.Tree.N)
		}
		n := t.Tree.N
		if err := check(t.Dst, t.DOff, t.DS, n); err != nil {
			return err
		}
		return check(t.Src, t.SOff, t.SS, n)
	case WHTCall:
		if t.N < 2 || t.N&(t.N-1) != 0 {
			return fmt.Errorf("op %s: WHT size %d not a power of two", op, t.N)
		}
		if t.V < 0 {
			return fmt.Errorf("op %s: negative row width %d", op, t.V)
		}
		if v := t.Width(); v > 1 {
			if t.DS < v || t.SS < v {
				return fmt.Errorf("op %s: row strides below the row width %d", op, v)
			}
			// Rows span [Off, Off+(N-1)·S+V): check both ends.
			if err := check(t.Dst, t.DOff, (t.N-1)*t.DS+v-1, 2); err != nil {
				return err
			}
			return check(t.Src, t.SOff, (t.N-1)*t.SS+v-1, 2)
		}
		if err := check(t.Dst, t.DOff, t.DS, t.N); err != nil {
			return err
		}
		return check(t.Src, t.SOff, t.SS, t.N)
	case Scale:
		if len(t.W) == 0 {
			return fmt.Errorf("op %s: empty scale", op)
		}
		if err := check(t.Dst, t.Off, 1, len(t.W)); err != nil {
			return err
		}
		return check(t.Src, t.Off, 1, len(t.W))
	case Permute:
		if len(t.Idx) == 0 {
			return fmt.Errorf("op %s: empty permutation", op)
		}
		if err := check(t.Dst, t.Lo, 1, len(t.Idx)); err != nil {
			return err
		}
		for _, s := range t.Idx {
			if int(s) < 0 || int(s) >= p.BufLen(t.Src) {
				return fmt.Errorf("op %s: source index %d outside %s", op, s, t.Src)
			}
		}
		return nil
	case Copy:
		if t.N < 1 {
			return fmt.Errorf("op %s: empty copy", op)
		}
		if err := check(t.Dst, t.DOff, 1, t.N); err != nil {
			return err
		}
		return check(t.Src, t.SOff, 1, t.N)
	case Transpose:
		if t.Rows < 1 || t.Cols < 1 {
			return fmt.Errorf("op %s: empty matrix %dx%d", op, t.Rows, t.Cols)
		}
		if t.Lo < 0 || t.Lo >= t.Hi || t.Hi > t.Cols {
			return fmt.Errorf("op %s: column range [%d,%d) outside [0,%d)", op, t.Lo, t.Hi, t.Cols)
		}
		if t.Tile < 0 {
			return fmt.Errorf("op %s: negative tile %d", op, t.Tile)
		}
		if err := check(t.Dst, t.DOff+t.Lo*t.Rows, 1, (t.Hi-t.Lo)*t.Rows); err != nil {
			return err
		}
		// Source reads cover columns [Lo,Hi) of every row: the extreme
		// indices are SOff+Lo and SOff+(Rows-1)·Cols+Hi-1.
		if err := check(t.Src, t.SOff+t.Lo, 1, 1); err != nil {
			return err
		}
		return check(t.Src, t.SOff+(t.Rows-1)*t.Cols+t.Hi-1, 1, 1)
	case CodeletGenCall:
		if t.Tree == nil {
			return fmt.Errorf("codelet gen call without tree")
		}
		if err := t.Tree.Validate(); err != nil {
			return err
		}
		if t.TwDen < 1 {
			return fmt.Errorf("op %s: twiddle modulus %d", op, t.TwDen)
		}
		if t.TwRow < 0 || t.TwOff < 0 {
			return fmt.Errorf("op %s: negative twiddle index row=%d off=%d", op, t.TwRow, t.TwOff)
		}
		n := t.Tree.N
		if err := check(t.Dst, t.DOff, t.DS, n); err != nil {
			return err
		}
		return check(t.Src, t.SOff, t.SS, n)
	case Untangle:
		if t.H < 1 || len(t.W) != t.H/2+1 {
			return fmt.Errorf("op %s: half size %d with %d weights, want %d", op, t.H, len(t.W), t.H/2+1)
		}
		if t.Lo < 0 || t.Lo >= t.Hi || t.Hi > t.H/2+1 {
			return fmt.Errorf("op %s: pair range [%d,%d) outside [0,%d]", op, t.Lo, t.Hi, t.H/2)
		}
		// The packed side holds H elements, the spectrum side H+1.
		in, out := t.H, t.H+1
		if t.Inverse {
			in, out = out, in
		}
		if err := check(t.Dst, 0, 1, out); err != nil {
			return err
		}
		return check(t.Src, 0, 1, in)
	case Generic:
		if t.F == nil {
			return fmt.Errorf("generic op without formula")
		}
		n := t.F.Size()
		if err := check(t.Dst, t.DOff, 1, n); err != nil {
			return err
		}
		return check(t.Src, t.SOff, 1, n)
	default:
		return fmt.Errorf("unknown op type %T", op)
	}
}

// String renders the program as a readable stage listing.
func (p *Program) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "program %q: n=%d p=%d µ=%d temps=%v", p.Name, p.N, p.P, p.Mu, p.Temps)
	if p.SrcN != 0 || p.DstN != 0 {
		fmt.Fprintf(&b, " src=%d dst=%d", p.BufLen(BufSrc), p.BufLen(BufDst))
	}
	b.WriteString("\n")
	for _, nd := range p.Nodes {
		switch t := nd.(type) {
		case Barrier:
			fmt.Fprintf(&b, "  ---- barrier ----\n")
		case *Region:
			fmt.Fprintf(&b, "  region %q:\n", t.Name)
			for w, ops := range t.Workers {
				if len(ops) == 0 {
					continue
				}
				fmt.Fprintf(&b, "    w%d:\n", w)
				for _, op := range ops {
					fmt.Fprintf(&b, "      %s\n", op)
				}
			}
		}
	}
	return b.String()
}
