package codegen

// The amd64 backend of the split-radix generator: it lowers a kernel's
// scheduled SSA program (srProgram) to SSE2 assembly, one complex128 per XMM
// register, and counts what it emits.
//
// Registers are assigned by a linear scan over the scheduled order. A value
// keeps its register from its definition to its last use; an op whose
// operand dies there computes its result in that operand's register. When
// an op needs a register and all sixteen are taken, the value whose next
// use lies furthest ahead is evicted to a 16-byte frame slot (stored once,
// however often it is evicted) and reloaded before its next use.
//
// The arithmetic is exactly Go's. A complex multiply by c+id is
// (x,y)·(c,c) + (y,x)·(−d,d) = (xc − yd, yc + xd), the same products and
// the same sums as Go's (c+id)·(x+iy) up to commutation, so every output is
// bit-identical to the Go kernel's. Only SSE2 instructions are used
// (GOAMD64=v1): no ADDSUBPD, no MOVDDUP, no FMA.

import (
	"fmt"
	"math"
	"strings"
)

// AsmStats counts what the amd64 backend emitted for one kernel.
type AsmStats struct {
	Name         string
	Instructions int // every instruction, prologue and RET included
	Loads        int // reads of src and w
	Stores       int // writes of dst
	Spills       int // stores of a value to its frame slot
	Reloads      int // loads of a value from its frame slot
	Frame        int // frame bytes
}

func (s AsmStats) String() string {
	return fmt.Sprintf("%s: %d instructions, %d loads, %d stores, %d spill moves (%d spills, %d reloads), %d-byte frame",
		s.Name, s.Instructions, s.Loads, s.Stores, s.Spills+s.Reloads, s.Spills, s.Reloads, s.Frame)
}

// Offsets of the sign masks at the head of the constant table.
const (
	signHi   = 0  // (+0, −0): flips the imaginary part
	signLo   = 16 // (−0, +0): flips the real part
	signBoth = 32 // (−0, −0)
)

// asmConsts is the file's table of 16-byte constants, srconst<>: the three
// sign masks, then (c, c) and (−d, d) for each distinct constant multiplier
// c+id.
type asmConsts struct {
	words [][2]uint64
	index map[[2]uint64]int
}

func newAsmConsts() *asmConsts {
	t := &asmConsts{index: map[[2]uint64]int{}}
	neg := math.Float64bits(math.Copysign(0, -1))
	for _, w := range [][2]uint64{{0, neg}, {neg, 0}, {neg, neg}} {
		t.offset(w)
	}
	return t
}

// offset returns the byte offset of the entry w, adding it if new.
func (t *asmConsts) offset(w [2]uint64) int {
	i, ok := t.index[w]
	if !ok {
		i = len(t.words)
		t.words = append(t.words, w)
		t.index[w] = i
	}
	return 16 * i
}

func (t *asmConsts) pair(lo, hi float64) string {
	return fmt.Sprintf("srconst<>+%d(SB)", t.offset([2]uint64{math.Float64bits(lo), math.Float64bits(hi)}))
}

func (t *asmConsts) write(b *strings.Builder) {
	for i, w := range t.words {
		fmt.Fprintf(b, "DATA srconst<>+%d(SB)/8, $%#016x\n", 16*i, w[0])
		fmt.Fprintf(b, "DATA srconst<>+%d(SB)/8, $%#016x\n", 16*i+8, w[1])
	}
	// A symbol of 32 bytes or more is 32-byte aligned, so every entry can
	// be a 16-byte SSE2 memory operand.
	fmt.Fprintf(b, "GLOBL srconst<>(SB), RODATA|NOPTR, $%d\n", 16*len(t.words))
}

const (
	numXMM  = 16
	regFree = -1
	regTemp = -2
)

// asmGen lowers one scheduled program.
type asmGen struct {
	consts *asmConsts
	body   strings.Builder
	stats  AsmStats
	pos    int           // index of the op being lowered
	uses   map[int][]int // value -> positions of the ops reading it, ascending
	reg    map[int]int   // value -> XMM register holding it
	slot   map[int]int   // value -> frame slot holding a copy of it
	owner  [numXMM]int   // XMM register -> value, regFree or regTemp
	free   []int         // unused frame slots
	slots  int           // frame slots allocated
}

func (g *asmGen) ins(format string, args ...any) {
	g.body.WriteByte('\t')
	fmt.Fprintf(&g.body, format, args...)
	g.body.WriteByte('\n')
	g.stats.Instructions++
}

// nextUse returns the position of v's first use after the current op, or
// -1 when it has none.
func (g *asmGen) nextUse(v int) int {
	for _, p := range g.uses[v] {
		if p > g.pos {
			return p
		}
	}
	return -1
}

// alloc returns a register for a new value or temp, evicting the value with
// the furthest next use when none is free. Registers holding a value in
// pinned are never taken.
func (g *asmGen) alloc(pinned ...int) int {
	for r, v := range g.owner {
		if v == regFree {
			return r
		}
	}
	victim, far := -1, -1
	for r, v := range g.owner {
		if v < 0 || contains(pinned, v) {
			continue
		}
		if u := g.nextUse(v); u > far {
			victim, far = r, u
		}
	}
	if victim < 0 {
		panic("codegen: no XMM register to evict")
	}
	v := g.owner[victim]
	if _, ok := g.slot[v]; !ok {
		s := g.slots
		if n := len(g.free); n > 0 {
			s, g.free = g.free[n-1], g.free[:n-1]
		} else {
			g.slots++
		}
		g.slot[v] = s
		g.ins("MOVUPD X%d, %d(SP)", victim, 16*s)
		g.stats.Spills++
	}
	delete(g.reg, v)
	g.owner[victim] = regFree
	return victim
}

func contains(s []int, v int) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

// bind makes r hold the value v.
func (g *asmGen) bind(v, r int) {
	g.owner[r] = v
	g.reg[v] = r
}

// reload puts v back into a register when it was evicted.
func (g *asmGen) reload(v int, pinned []int) {
	if _, ok := g.reg[v]; ok {
		return
	}
	r := g.alloc(pinned...)
	g.ins("MOVUPD %d(SP), X%d", 16*g.slot[v], r)
	g.stats.Reloads++
	g.bind(v, r)
}

// release frees v's register (unless another value took it over) and frame
// slot after its last use.
func (g *asmGen) release(v int) {
	if r, ok := g.reg[v]; ok && g.owner[r] == v {
		g.owner[r] = regFree
	}
	delete(g.reg, v)
	if s, ok := g.slot[v]; ok {
		g.free = append(g.free, s)
		delete(g.slot, v)
	}
}

// addr renders the address of element j of a run at base with the byte
// stride in the register stride, computing j·stride into AX when the
// scaled-index forms cannot.
func (g *asmGen) addr(base, stride string, j int) string {
	switch j {
	case 0:
		return "(" + base + ")"
	case 1, 2, 4, 8:
		return fmt.Sprintf("(%s)(%s*%d)", base, stride, j)
	}
	g.ins("IMUL3Q $%d, %s, AX", j, stride)
	return fmt.Sprintf("(%s)(AX*1)", base)
}

// temp returns a register reserved until the end of the current op.
func (g *asmGen) temp(pinned ...int) int {
	r := g.alloc(pinned...)
	g.owner[r] = regTemp
	return r
}

// result returns the register for op's result computed from operand a: a's
// own register when a dies here, else a fresh one holding a copy of a.
func (g *asmGen) result(a int, dies bool, pinned []int) int {
	ra := g.reg[a]
	if dies {
		return ra
	}
	r := g.temp(pinned...)
	g.ins("MOVAPD X%d, X%d", ra, r)
	return r
}

// lower emits the op at g.pos.
func (g *asmGen) lower(op srop) {
	args := op.args()
	for _, a := range args {
		g.reload(a, args)
	}
	dies := func(v int) bool { return g.nextUse(v) < 0 }
	r := -1
	switch op.kind {
	case opLoad:
		r = g.temp()
		g.ins("MOVUPD %s, X%d", g.addr("SI", "CX", op.j), r)
		g.stats.Loads++
	case opLoadW:
		r = g.temp()
		t, u := g.temp(), g.temp()
		g.ins("MOVUPD %s, X%d", g.addr("R8", "R9", op.j), t) // (wr, wi)
		g.ins("MOVAPD X%d, X%d", t, u)
		g.ins("UNPCKLPD X%d, X%d", t, t) // (wr, wr)
		g.ins("UNPCKHPD X%d, X%d", u, u) // (wi, wi)
		g.ins("XORPD srconst<>+%d(SB), X%d", signLo, u)
		g.ins("MOVUPD %s, X%d", g.addr("SI", "CX", op.j), r) // (sr, si)
		g.ins("MULPD X%d, X%d", r, t)                        // (sr·wr, si·wr)
		g.ins("SHUFPD $1, X%d, X%d", r, r)                   // (si, sr)
		g.ins("MULPD X%d, X%d", u, r)                        // (−si·wi, sr·wi)
		g.ins("ADDPD X%d, X%d", t, r)
		g.stats.Loads += 2
	case opStore:
		g.ins("MOVUPD X%d, %s", g.reg[op.a], g.addr("DI", "DX", op.j))
		g.stats.Stores++
	case opAdd, opSub:
		in := "ADDPD"
		if op.kind == opSub {
			in = "SUBPD"
		}
		ra, rb := g.reg[op.a], g.reg[op.b]
		switch {
		case dies(op.a):
			r = ra
			g.ins("%s X%d, X%d", in, rb, r)
		case op.kind == opAdd && dies(op.b):
			r = rb
			g.ins("%s X%d, X%d", in, ra, r)
		default:
			r = g.result(op.a, false, args)
			g.ins("%s X%d, X%d", in, rb, r)
		}
	case opNeg:
		r = g.result(op.a, dies(op.a), args)
		g.ins("XORPD srconst<>+%d(SB), X%d", signBoth, r)
	case opMulNegI, opMulPosI:
		r = g.result(op.a, dies(op.a), args)
		mask := signHi // (y, x) → (y, −x)
		if op.kind == opMulPosI {
			mask = signLo // (y, x) → (−y, x)
		}
		g.ins("SHUFPD $1, X%d, X%d", r, r)
		g.ins("XORPD srconst<>+%d(SB), X%d", mask, r)
	case opMulConst:
		r = g.result(op.a, dies(op.a), args)
		t := g.temp(args...)
		c, d := real(op.c), imag(op.c)
		g.ins("MOVAPD X%d, X%d", r, t)
		g.ins("SHUFPD $1, X%d, X%d", t, t)              // (y, x)
		g.ins("MULPD %s, X%d", g.consts.pair(c, c), r)  // (xc, yc)
		g.ins("MULPD %s, X%d", g.consts.pair(-d, d), t) // (−yd, xd)
		g.ins("ADDPD X%d, X%d", t, r)
	}
	for _, a := range args {
		if dies(a) {
			g.release(a)
		}
	}
	for i, v := range g.owner {
		if v == regTemp {
			g.owner[i] = regFree
		}
	}
	if r >= 0 {
		g.bind(op.v, r)
		if dies(op.v) {
			g.release(op.v)
		}
	}
}

// asmKernel lowers the straight-line kernel srNn (srNw when twiddled) to
// the TEXT symbol srNnSSE2 (srNwSSE2) and returns its text and counts. The
// register conventions are DI/DX for dst and its byte stride, SI/CX for
// src, R8/R9 for w, and AX for index arithmetic.
func asmKernel(n int, twiddled bool, consts *asmConsts) (string, AsmStats) {
	kernel := fmt.Sprintf("sr%dn", n)
	if twiddled {
		kernel = fmt.Sprintf("sr%dw", n)
	}
	name := kernel + "SSE2"
	prog := srProgram(n, twiddled)
	g := &asmGen{
		consts: consts,
		uses:   map[int][]int{},
		reg:    map[int]int{},
		slot:   map[int]int{},
		stats:  AsmStats{Name: kernel},
	}
	for i := range g.owner {
		g.owner[i] = regFree
	}
	for i, op := range prog {
		for _, a := range op.args() {
			g.uses[a] = append(g.uses[a], i)
		}
	}
	for i, op := range prog {
		g.pos = i
		g.lower(op)
	}
	g.ins("RET")

	argSize := 32
	if twiddled {
		argSize = 48
	}
	g.stats.Frame = 16 * g.slots
	var b strings.Builder
	if twiddled {
		fmt.Fprintf(&b, "// func %s(dst *complex128, ds int, src *complex128, ss int, w *complex128, ws int)\n", name)
	} else {
		fmt.Fprintf(&b, "// func %s(dst *complex128, ds int, src *complex128, ss int)\n", name)
	}
	fmt.Fprintf(&b, "TEXT ·%s(SB), $%d-%d\n", name, g.stats.Frame, argSize)
	prologue := []string{
		"MOVQ dst+0(FP), DI", "MOVQ ds+8(FP), DX", "MOVQ src+16(FP), SI", "MOVQ ss+24(FP), CX",
		"SHLQ $4, DX", "SHLQ $4, CX",
	}
	if twiddled {
		prologue = append(prologue, "MOVQ w+32(FP), R8", "MOVQ ws+40(FP), R9", "SHLQ $4, R9")
	}
	for _, in := range prologue {
		fmt.Fprintf(&b, "\t%s\n", in)
	}
	g.stats.Instructions += len(prologue)
	b.WriteString(g.body.String())
	return b.String(), g.stats
}
