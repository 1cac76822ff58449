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
	"math"
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
	// Footprint states the elements the op writes and reads. It is the one
	// description of an op's access geometry: Validate bounds-checks it,
	// the cache-line trace visits it, and the passes read buffers and
	// coverage from it.
	Footprint() Footprint
	// Moved returns the same op on other buffers: it writes f.Write.Buf and
	// reads f.Read.Buf, with its first write and read span starting at
	// Spans[0].Off with row stride Spans[0].Stride. Rows, widths, second
	// spans and index lists stay the op's own, as does any offset or stride
	// its fields fix (a Scale's shared offset, a Transpose's strides, an
	// Untangle's pairs), so a caller that only renames buffers passes the
	// op's own footprint with new Bufs.
	Moved(f Footprint) Op
	// check reports a violation of the op's own invariants (sizes, ranges,
	// twiddle parameters); Validate bounds-checks the footprint after it.
	check() error
	// String renders the op for diagnostics.
	String() string
}

// Span is Rows rows of Width contiguous elements, row i starting at
// Off + i·Stride. Stride may be negative; Rows 0 is the empty span.
type Span struct {
	Off, Stride, Rows, Width int
}

// Access is one side of an op's footprint: the elements of one buffer that
// its spans cover, then Idx, an explicit index list (a Permute's source).
type Access struct {
	Buf   Buf
	Spans [2]Span
	Idx   []int32
}

// Footprint is what an op writes and what it reads.
type Footprint struct {
	Write, Read Access
}

// strided is the footprint of an op with one span per side.
func strided(dst Buf, w Span, src Buf, r Span) Footprint {
	return Footprint{Write: Access{Buf: dst, Spans: [2]Span{w}}, Read: Access{Buf: src, Spans: [2]Span{r}}}
}

// run is the span of n contiguous elements from off.
func run(off, n int) Span { return Span{Off: off, Stride: n, Rows: 1, Width: n} }

// at returns the buffer, offset and row stride Moved places an op's first
// span at.
func (a *Access) at() (Buf, int, int) { return a.Buf, a.Spans[0].Off, a.Spans[0].Stride }

// each calls f with every index the access visits: the spans row by row,
// then Idx.
func (a *Access) each(f func(idx int)) {
	for _, s := range a.Spans {
		for i := 0; i < s.Rows; i++ {
			for u := 0; u < s.Width; u++ {
				f(s.Off + i*s.Stride + u)
			}
		}
	}
	for _, i := range a.Idx {
		f(int(i))
	}
}

// has reports whether the access visits index i.
func (a *Access) has(i int) bool {
	for _, s := range a.Spans {
		if s.Width == 1 && s.Stride != 0 { // a strided run: one division
			if d := i - s.Off; d%s.Stride == 0 && d/s.Stride >= 0 && d/s.Stride < s.Rows {
				return true
			}
			continue
		}
		for r := 0; r < s.Rows; r++ {
			if u := i - s.Off - r*s.Stride; u >= 0 && u < s.Width {
				return true
			}
		}
	}
	for _, x := range a.Idx {
		if int(x) == i {
			return true
		}
	}
	return false
}

// bounds returns the least and greatest index the access visits; lo > hi
// when it visits none.
func (a *Access) bounds() (lo, hi int) {
	lo, hi = math.MaxInt, math.MinInt
	for i := range a.Spans {
		if s := &a.Spans[i]; s.Rows > 0 && s.Width > 0 {
			last := s.Off + (s.Rows-1)*s.Stride
			lo, hi = min(lo, s.Off, last), max(hi, s.Off+s.Width-1, last+s.Width-1)
		}
	}
	for _, i := range a.Idx {
		lo, hi = min(lo, int(i)), max(hi, int(i))
	}
	return lo, hi
}

// CodeletCall runs a compiled factorization tree as a strided sub-DFT:
//
//	dst[DOff + i·DS] = DFT_n(Tw ⊙ src[SOff + j·SS]),  n = Tree.N
//
// Tw, when non-nil, is a length-n input scale vector (a twiddle column
// absorbed into the call, the paper's loop merging). The executor fuses it
// into the leaf kernel when the tree root is a leaf and pre-scales into
// scratch otherwise — exactly the strategy of the recursive executor.
//
// V > 1 is the panel DFT_n ⊗ I_V: lane v < V transforms
// src[SOff + v·SV + j·SS] into dst[DOff + v·DV + i·DS], every lane with the
// same Tw. Each side is rows or lanes. Rows (lane stride ±1, point stride at
// least V in size) hold point j as V adjacent elements, so a panel touches
// each of a row's V/µ cache lines once; the executor stages such a side
// through worker scratch lane-major (lane v contiguous), gathering every
// row before the first transform and scattering after the last, so each
// lane transform runs at stride 1. Lanes (point stride ±1, lane stride at
// least n in size) hold each lane as one run, read or written in place.
// dst may be src when either side is rows (it is then staged) or the two
// sides are the same. V 0 or 1 is the plain call (SV and DV unused).
type CodeletCall struct {
	Dst, Src Buf
	DOff, DS int
	SOff, SS int
	Tree     *exec.Tree
	Tw       []complex128
	V        int
	DV, SV   int
}

func (c CodeletCall) Footprint() Footprint {
	return strided(c.Dst, panelSpan(c.DOff, c.DS, c.DV, c.Tree.N, c.V), c.Src, panelSpan(c.SOff, c.SS, c.SV, c.Tree.N, c.V))
}

func (c CodeletCall) Moved(f Footprint) Op {
	c.Dst, c.DOff, c.DS, c.DV = movedPanel(&f.Write, c.DS, c.DV, c.Tree.N, c.V)
	c.Src, c.SOff, c.SS, c.SV = movedPanel(&f.Read, c.SS, c.SV, c.Tree.N, c.V)
	return c
}

func (c CodeletCall) check() error {
	if c.Tree == nil {
		return fmt.Errorf("codelet call without tree")
	}
	if err := c.Tree.Validate(); err != nil {
		return err
	}
	if c.Tw != nil && len(c.Tw) != c.Tree.N {
		return fmt.Errorf("op %s: tw length %d, want %d", c, len(c.Tw), c.Tree.N)
	}
	if !panelOK(c.DS, c.DV, c.SS, c.SV, c.Tree.N, c.V) {
		return fmt.Errorf("op %s: a panel side is neither rows nor lanes", c)
	}
	return nil
}

// N returns the sub-transform size.
func (c CodeletCall) N() int { return c.Tree.N }

func (c CodeletCall) String() string {
	tw := ""
	if c.Tw != nil {
		tw = " ⊙tw"
	}
	return fmt.Sprintf("dft%s%s %s ← %s%s", c.Tree, panelName(c.V),
		sideString(c.Dst, c.DOff, c.DS, c.DV, c.V), sideString(c.Src, c.SOff, c.SS, c.SV, c.V), tw)
}

// panelSpan is the span one side of a sub-DFT call covers: n points at
// stride s from off, each point a row of v lanes at lane stride l when
// v > 1 (see CodeletCall).
func panelSpan(off, s, l, n, v int) Span {
	switch {
	case v <= 1:
		return Span{off, s, n, 1}
	case l == 1 || l == -1: // rows
		return Span{min(off, off+(v-1)*l), s, n, v}
	default: // lanes
		return Span{min(off, off+(n-1)*s), l, v, n}
	}
}

// movedPanel inverts panelSpan for a side whose first span now starts at
// a.Spans[0]: it returns the side's buffer, offset, point and lane stride.
func movedPanel(a *Access, s, l, n, v int) (Buf, int, int, int) {
	b, off, stride := a.at()
	switch {
	case v <= 1:
		return b, off, stride, l
	case l == 1 || l == -1:
		return b, off - min(0, (v-1)*l), stride, l
	default:
		return b, off - min(0, (n-1)*s), s, stride
	}
}

// panelOK reports whether both sides of a v-lane panel of n-point
// sub-DFTs are rows or lanes; any other side's elements would overlap or
// leave the span panelSpan reports.
func panelOK(ds, dv, ss, sv, n, v int) bool {
	return v <= 1 || panelSideOK(ds, dv, n, v) && panelSideOK(ss, sv, n, v)
}

// panelSideOK reports whether a panel side with point stride s and lane
// stride l is rows or lanes.
func panelSideOK(s, l, n, v int) bool {
	s, l = abs(s), abs(l)
	return l == 1 && s >= v || s == 1 && l >= n
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// panelName renders a panel width as its ⊗ I_V factor.
func panelName(v int) string {
	if v > 1 {
		return fmt.Sprintf("⊗I%d", v)
	}
	return ""
}

// sideString renders one side of a sub-DFT call: buffer, offset, point
// stride and, for a panel, lane stride.
func sideString(b Buf, off, s, l, v int) string {
	if v > 1 {
		return fmt.Sprintf("%s[%d:%d:%d]", b, off, s, l)
	}
	return fmt.Sprintf("%s[%d:%d]", b, off, s)
}

// WHTCall runs a 2^k-point Walsh-Hadamard transform with strided I/O:
//
//	dst[DOff + i·DS] = Scale·WHT_N(src[SOff + j·SS])
//
// V > 1 is the row form WHT_N ⊗ I_V: the N "points" are rows of V
// contiguous elements, row i at dst[DOff + i·DS : DOff + i·DS + V] (and
// likewise src). The butterflies then run on whole row slices, so a worker
// transforms its column range of the rows in place with no gather. V 0 or 1
// is the plain transform. Strides are at least the row width (1 for the
// plain transform): the executor walks rows upward from the offsets. dst
// may be src when the offsets and strides match (in place); otherwise the
// two spans must not overlap.
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

func (c WHTCall) Footprint() Footprint {
	return strided(c.Dst, Span{c.DOff, c.DS, c.N, c.Width()}, c.Src, Span{c.SOff, c.SS, c.N, c.Width()})
}

func (c WHTCall) Moved(f Footprint) Op {
	c.Dst, c.DOff, c.DS = f.Write.at()
	c.Src, c.SOff, c.SS = f.Read.at()
	return c
}

func (c WHTCall) check() error {
	if c.N < 2 || c.N&(c.N-1) != 0 {
		return fmt.Errorf("op %s: WHT size %d not a power of two", c, c.N)
	}
	if c.V < 0 {
		return fmt.Errorf("op %s: negative row width %d", c, c.V)
	}
	if v := c.Width(); c.DS < v || c.SS < v {
		return fmt.Errorf("op %s: row strides below the row width %d", c, v)
	}
	return nil
}

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

// Footprint covers, for each pair k, bins k and H-k on both sides: the
// middle bin H/2 once, and on the packed side (H points) only bin 0 for
// k = 0.
func (c Untangle) Footprint() Footprint {
	packed, spectrum := c.bins(true), c.bins(false)
	if c.Inverse {
		packed, spectrum = spectrum, packed
	}
	return Footprint{Write: Access{Buf: c.Dst, Spans: spectrum}, Read: Access{Buf: c.Src, Spans: packed}}
}

// bins returns the bins the pairs touch on one side: k ascending, then the
// partners H-k descending.
func (c Untangle) bins(packed bool) [2]Span {
	lo, hi := c.Lo, c.Hi
	if packed && lo == 0 {
		lo = 1
	}
	if c.H%2 == 0 && hi > c.H/2 {
		hi = c.H / 2
	}
	return [2]Span{{c.Lo, 1, c.Hi - c.Lo, 1}, {c.H - lo, -1, max(hi-lo, 0), 1}}
}

func (c Untangle) Moved(f Footprint) Op {
	c.Dst, c.Src = f.Write.Buf, f.Read.Buf
	return c
}

func (c Untangle) check() error {
	if c.H < 1 || len(c.W) != c.H/2+1 {
		return fmt.Errorf("op %s: half size %d with %d weights, want %d", c, c.H, len(c.W), c.H/2+1)
	}
	if c.Lo < 0 || c.Lo >= c.Hi || c.Hi > c.H/2+1 {
		return fmt.Errorf("op %s: pair range [%d,%d) outside [0,%d]", c, c.Lo, c.Hi, c.H/2)
	}
	return nil
}

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

func (c Scale) Footprint() Footprint {
	return strided(c.Dst, run(c.Off, len(c.W)), c.Src, run(c.Off, len(c.W)))
}

func (c Scale) Moved(f Footprint) Op {
	c.Dst, c.Off, _ = f.Write.at()
	c.Src = f.Read.Buf
	return c
}

func (c Scale) check() error {
	if len(c.W) == 0 {
		return fmt.Errorf("op %s: empty scale", c)
	}
	return nil
}

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

func (c Permute) Footprint() Footprint {
	return Footprint{Write: Access{Buf: c.Dst, Spans: [2]Span{run(c.Lo, len(c.Idx))}}, Read: Access{Buf: c.Src, Idx: c.Idx}}
}

func (c Permute) Moved(f Footprint) Op {
	c.Dst, c.Lo, _ = f.Write.at()
	c.Src = f.Read.Buf
	return c
}

func (c Permute) check() error {
	if len(c.Idx) == 0 {
		return fmt.Errorf("op %s: empty permutation", c)
	}
	return nil
}

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

func (c Copy) Footprint() Footprint { return strided(c.Dst, run(c.DOff, c.N), c.Src, run(c.SOff, c.N)) }

func (c Copy) Moved(f Footprint) Op {
	c.Dst, c.DOff, _ = f.Write.at()
	c.Src, c.SOff, _ = f.Read.at()
	return c
}

func (c Copy) check() error {
	if c.N < 1 {
		return fmt.Errorf("op %s: empty copy", c)
	}
	return nil
}

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

// Footprint is conservative: the whole block read, the whole block
// written.
func (c Generic) Footprint() Footprint {
	return strided(c.Dst, run(c.DOff, c.F.Size()), c.Src, run(c.SOff, c.F.Size()))
}

func (c Generic) Moved(f Footprint) Op {
	c.Dst, c.DOff, _ = f.Write.at()
	c.Src, c.SOff, _ = f.Read.at()
	return c
}

func (c Generic) check() error {
	if c.F == nil {
		return fmt.Errorf("generic op without formula")
	}
	return nil
}

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
// writes are contiguous runs, with false sharing confined to at most one
// line per worker boundary. No lowering emits it; the benchmarks time it as
// the memory system's redistribution reference.
type Transpose struct {
	Dst, Src   Buf
	DOff, SOff int
	Rows, Cols int
	Lo, Hi     int
	Tile       int
}

// Footprint covers destination rows [Lo,Hi) whole and columns [Lo,Hi) of
// every source row.
func (c Transpose) Footprint() Footprint {
	return strided(c.Dst, Span{c.DOff + c.Lo*c.Rows, c.Rows, c.Hi - c.Lo, c.Rows},
		c.Src, Span{c.SOff + c.Lo, c.Cols, c.Rows, c.Hi - c.Lo})
}

func (c Transpose) Moved(f Footprint) Op {
	c.Dst, c.DOff, _ = f.Write.at()
	c.Src, c.SOff, _ = f.Read.at()
	c.DOff -= c.Lo * c.Rows
	c.SOff -= c.Lo
	return c
}

func (c Transpose) check() error {
	if c.Rows < 1 || c.Cols < 1 {
		return fmt.Errorf("op %s: empty matrix %dx%d", c, c.Rows, c.Cols)
	}
	if c.Lo < 0 || c.Lo >= c.Hi || c.Hi > c.Cols {
		return fmt.Errorf("op %s: column range [%d,%d) outside [0,%d)", c, c.Lo, c.Hi, c.Cols)
	}
	if c.Tile < 0 {
		return fmt.Errorf("op %s: negative tile %d", c, c.Tile)
	}
	return nil
}

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
// twiddle state is O(n1) per worker. V, DV and SV make it a panel as on
// CodeletCall; lane v scales by row TwRow + v.
type CodeletGenCall struct {
	Dst, Src Buf
	DOff, DS int
	SOff, SS int
	Tree     *exec.Tree
	TwDen    int // modulus of the generated roots (the full transform size)
	TwRow    int // row of the diagonal (the panel index)
	TwOff    int // starting column offset within the row
	V        int
	DV, SV   int
}

func (c CodeletGenCall) Footprint() Footprint {
	return strided(c.Dst, panelSpan(c.DOff, c.DS, c.DV, c.Tree.N, c.V), c.Src, panelSpan(c.SOff, c.SS, c.SV, c.Tree.N, c.V))
}

func (c CodeletGenCall) Moved(f Footprint) Op {
	c.Dst, c.DOff, c.DS, c.DV = movedPanel(&f.Write, c.DS, c.DV, c.Tree.N, c.V)
	c.Src, c.SOff, c.SS, c.SV = movedPanel(&f.Read, c.SS, c.SV, c.Tree.N, c.V)
	return c
}

func (c CodeletGenCall) check() error {
	if c.Tree == nil {
		return fmt.Errorf("codelet gen call without tree")
	}
	if err := c.Tree.Validate(); err != nil {
		return err
	}
	if c.TwDen < 1 {
		return fmt.Errorf("op %s: twiddle modulus %d", c, c.TwDen)
	}
	if c.TwRow < 0 || c.TwOff < 0 {
		return fmt.Errorf("op %s: negative twiddle index row=%d off=%d", c, c.TwRow, c.TwOff)
	}
	if !panelOK(c.DS, c.DV, c.SS, c.SV, c.Tree.N, c.V) {
		return fmt.Errorf("op %s: a panel side is neither rows nor lanes", c)
	}
	return nil
}

// N returns the sub-transform size.
func (c CodeletGenCall) N() int { return c.Tree.N }

func (c CodeletGenCall) String() string {
	return fmt.Sprintf("dft%s%s %s ← %s ⊙ω_%d^{%d·(%d+k)}", c.Tree, panelName(c.V),
		sideString(c.Dst, c.DOff, c.DS, c.DV, c.V), sideString(c.Src, c.SOff, c.SS, c.SV, c.V), c.TwDen, c.TwRow, c.TwOff)
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

// Validate checks structural invariants: region shape, each op's own
// invariants, and each op's footprint within its buffers' bounds.
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
					if err := p.validateOp(op); err != nil {
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

// validateOp checks the op's own invariants, then that both sides of its
// footprint name a buffer of the program and stay within it.
func (p *Program) validateOp(op Op) error {
	if err := op.check(); err != nil {
		return err
	}
	f := op.Footprint()
	for _, a := range [2]*Access{&f.Write, &f.Read} {
		if a.Buf < 0 || int(a.Buf) >= p.NumBufs() {
			return fmt.Errorf("op %s: unknown buffer %d", op, int(a.Buf))
		}
		if lo, hi := a.bounds(); lo <= hi && (lo < 0 || hi >= p.BufLen(a.Buf)) {
			return fmt.Errorf("op %s: span [%d,%d] outside %s (len %d)", op, lo, hi, a.Buf, p.BufLen(a.Buf))
		}
	}
	return nil
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
