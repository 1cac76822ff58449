package codegen

// The amd64 backend of the split-radix generator: it lowers a kernel's
// scheduled SSA program (srProgram) to assembly twice, and counts what it
// emits:
//
//   - one lane, SSE2: one complex128 per XMM register (srNnSSE2, srNwSSE2);
//   - two lanes, AVX: DFT_n ⊗ I_2, two complex128 per YMM register, lane 0
//     in the low half and lane 1 in the high half (srNn2AVX, srNw2AVX).
//     Each load is a VMOVUPD of lane 0's element and a VINSERTF128 of lane
//     1's, each store a VMOVUPD of the low half and a VEXTRACTF128 of the
//     high one; everything between is the one-lane program on Y registers,
//     in the three-operand VEX forms.
//
// The WHT pass kernels (wht.go) reuse the same lowering inside their loops,
// with two more forms: two lanes that are adjacent elements of one run,
// moved by one 32-byte VMOVUPD, and one lane in the VEX forms (the AVX
// kernel's tail).
//
// Registers are assigned by a linear scan over the scheduled order. A value
// keeps its register from its definition to its last use; an op whose
// operand dies there computes its result in that operand's register. When
// an op needs a register and all sixteen are taken, the value whose next
// use lies furthest ahead is evicted to a frame slot of one register's
// width (stored once, however often it is evicted) and reloaded before its
// next use.
//
// Element j of a run sits at base + j·stride. The scaled-index forms reach
// j·stride for j = 1, 2, 4, 8; any other j is k·stride scaled by the largest
// of 1, 2, 4, 8 that divides it, with k·stride held in a spare
// general-purpose register. The spare registers cache the multiples they
// hold, the one needed furthest ahead giving way first, and a missing
// multiple is built with one to four LEAQs from the stride and the
// multiples held, so no address takes a multiply.
//
// The arithmetic is exactly Go's. A complex multiply by c+id is
// (x,y)·(c,c) + (y,x)·(−d,d) = (xc − yd, yc + xd), the same products and
// the same sums as Go's (c+id)·(x+iy) up to commutation, so every output is
// bit-identical to the Go kernel's, in either lane of either width. The
// one-lane kernels use SSE2 alone (GOAMD64=v1): no ADDSUBPD, no MOVDDUP, no
// FMA. The two-lane kernels use AVX1 and no FMA, and end in VZEROUPPER.

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// AsmStats counts what the amd64 backend emitted for one kernel.
type AsmStats struct {
	Name         string
	Instructions int // every instruction, prologue and RET included
	Loads        int // instructions reading src and w
	Stores       int // instructions writing dst
	Spills       int // stores of a value to its frame slot
	Reloads      int // loads of a value from its frame slot
	Addrs        int // LEAQs building stride multiples and lane bases
	Frame        int // frame bytes
}

func (s AsmStats) String() string {
	return fmt.Sprintf("%s: %d instructions, %d loads, %d stores, %d spill moves (%d spills, %d reloads), %d address LEAQs, %d-byte frame",
		s.Name, s.Instructions, s.Loads, s.Stores, s.Spills+s.Reloads, s.Spills, s.Reloads, s.Addrs, s.Frame)
}

// Offsets of the sign masks at the head of the constant table.
const (
	signHi   = 0  // (+0, −0): flips the imaginary part
	signLo   = 32 // (−0, +0): flips the real part
	signBoth = 64 // (−0, −0)
)

// asmConsts is the file's table of constants, srconst<>: the three sign
// masks, then (c, c) and (−d, d) for each distinct constant multiplier
// c+id. Each entry is 32 bytes, its 16-byte pair twice, so one table serves
// the 16-byte operands of the SSE2 kernels and the 32-byte ones of the AVX
// kernels.
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
	return 32 * i
}

func (t *asmConsts) pair(lo, hi float64) string {
	return fmt.Sprintf("srconst<>+%d(SB)", t.offset([2]uint64{math.Float64bits(lo), math.Float64bits(hi)}))
}

func (t *asmConsts) write(b *strings.Builder) {
	for i, w := range t.words {
		for h := 0; h < 4; h++ {
			fmt.Fprintf(b, "DATA srconst<>+%d(SB)/8, $%#016x\n", 32*i+8*h, w[h%2])
		}
	}
	// A symbol of 32 bytes or more is 32-byte aligned, so every entry is an
	// aligned 16-byte SSE2 memory operand.
	fmt.Fprintf(b, "GLOBL srconst<>(SB), RODATA|NOPTR, $%d\n", 32*len(t.words))
}

const (
	numXMM   = 16
	regFree  = -1
	regTemp  = -2
	regFixed = -3 // reserved for the whole kernel
)

// strideMult is k times the byte stride in the register stride.
type strideMult struct {
	stride string
	k      int
}

// asmGen lowers one scheduled program at one width.
type asmGen struct {
	lanes int // values per register: 1 on X registers, 2 on Y registers
	// vex selects the three-operand AVX forms (always at two lanes);
	// adjacent says that a register's two lanes are adjacent elements of
	// one run, moved as one 32-byte VMOVUPD, rather than elements of two
	// lane bases.
	vex, adjacent bool
	consts        *asmConsts
	body          strings.Builder
	stats         AsmStats
	pos           int           // index of the op being lowered
	uses          map[int][]int // value -> positions of the ops reading it, ascending
	reg           map[int]int   // value -> vector register holding it
	slot          map[int]int   // value -> frame slot holding a copy of it
	owner         [numXMM]int   // vector register -> value, regFree, regTemp or regFixed
	free          []int         // unused frame slots
	slots         int           // frame slots allocated
	// bases are the lane base registers of dst, src and w; lane 1's is
	// empty at one lane. ss is the register holding src's byte stride.
	dst, src, w [2]string
	ss          string
	// spare lists the general-purpose registers free for stride multiples,
	// held what each of them holds; needs lists the multiples the kernel's
	// addresses take, in order, and next indexes the next of them.
	spare []string
	held  map[string]strideMult
	needs []strideMult
	next  int
}

func (g *asmGen) ins(format string, args ...any) {
	g.body.WriteByte('\t')
	fmt.Fprintf(&g.body, format, args...)
	g.body.WriteByte('\n')
	g.stats.Instructions++
}

// lea emits an address LEAQ.
func (g *asmGen) lea(operands string) {
	g.ins("LEAQ %s", operands)
	g.stats.Addrs++
}

// v renders vector register r at the kernel's width.
func (g *asmGen) v(r int) string {
	if g.lanes == 2 {
		return fmt.Sprintf("Y%d", r)
	}
	return fmt.Sprintf("X%d", r)
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
		panic("codegen: no vector register to evict")
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
		g.ins("%s %s, %d(SP)", g.mov(), g.v(victim), 16*g.lanes*s)
		g.stats.Spills++
	}
	delete(g.reg, v)
	g.owner[victim] = regFree
	return victim
}

// mov is the unaligned full-width move.
func (g *asmGen) mov() string {
	if g.vex {
		return "VMOVUPD"
	}
	return "MOVUPD"
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
	g.ins("%s %d(SP), %s", g.mov(), 16*g.lanes*g.slot[v], g.v(r))
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

// index renders the scaled-index part of the address of element j of a run
// at the byte stride in the register stride: "" for j = 0, else "(R*s)"
// with s the largest of 1, 2, 4, 8 dividing j and R holding (j/s)·stride.
func (g *asmGen) index(stride string, j int) string {
	if j == 0 {
		return ""
	}
	k, s := scaled(j)
	r := stride
	if k > 1 {
		r = g.multiple(stride, k)
	}
	return fmt.Sprintf("(%s*%d)", r, s)
}

// scaled splits j > 0 into k·s with s the largest of 1, 2, 4, 8 dividing j.
func scaled(j int) (k, s int) {
	s = 8
	for j%s != 0 {
		s /= 2
	}
	return j / s, s
}

// leaStep is one LEAQ (a)(b*m) of a recipe: the multiples a + b·m of a
// stride from multiples a and b, where -1 names the recipe's own register.
type leaStep struct{ a, b, m int }

// multiple returns a spare register holding k·stride, building it when no
// spare register holds it yet.
func (g *asmGen) multiple(stride string, k int) string {
	g.next++
	have := map[int]string{1: stride}
	for _, r := range g.spare {
		if m, ok := g.held[r]; ok && m.stride == stride {
			if m.k == k {
				return r
			}
			have[m.k] = r
		}
	}
	// Build into a register that holds nothing, else into the one whose
	// multiple is needed furthest ahead; it is no source of the recipe.
	t, far := "", -1
	for _, r := range g.spare {
		m, ok := g.held[r]
		if !ok {
			t = r
			break
		}
		u := len(g.needs)
		for i := g.next; i < len(g.needs); i++ {
			if g.needs[i] == m {
				u = i
				break
			}
		}
		if u > far {
			t, far = r, u
		}
	}
	if m, ok := g.held[t]; ok && m.stride == stride {
		delete(have, m.k)
	}
	steps := leaRecipe(have, k)
	if steps == nil {
		panic(fmt.Sprintf("codegen: no LEAQ recipe for %d·stride", k))
	}
	for _, s := range steps {
		a, b := t, t
		if s.a >= 0 {
			a = have[s.a]
		}
		if s.b >= 0 {
			b = have[s.b]
		}
		g.lea(fmt.Sprintf("(%s)(%s*%d), %s", a, b, s.m, t))
	}
	g.held[t] = strideMult{stride, k}
	return t
}

// leaRecipe returns the shortest LEAQ sequence, at most four steps, that
// builds k from the multiples in have into one register, or nil.
func leaRecipe(have map[int]string, k int) []leaStep {
	type state struct {
		v     int // the recipe register's value, 0 before the first step
		steps []leaStep
	}
	held := make([]int, 0, len(have))
	for h := range have {
		held = append(held, h)
	}
	sort.Ints(held)
	frontier := []state{{}}
	for depth := 0; depth < 4; depth++ {
		var next []state
		seen := map[int]bool{}
		for _, st := range frontier {
			// The sources: the multiples held, and the recipe register.
			src := held
			if st.v > 0 {
				src = append(held[:len(held):len(held)], -1)
			}
			val := func(x int) int {
				if x < 0 {
					return st.v
				}
				return x
			}
			for _, a := range src {
				for _, b := range src {
					for _, m := range []int{1, 2, 4, 8} {
						v := val(a) + val(b)*m
						if seen[v] || v > k {
							continue
						}
						seen[v] = true
						steps := append(append([]leaStep(nil), st.steps...), leaStep{a, b, m})
						if v == k {
							return steps
						}
						next = append(next, state{v, steps})
					}
				}
			}
		}
		frontier = next
	}
	return nil
}

// load fills r with element j of the run at bases, stride: lane 0's
// element, and at two lanes lane 1's in the high half.
func (g *asmGen) load(bases [2]string, stride string, j, r int) {
	idx := g.index(stride, j)
	if g.lanes == 1 || g.adjacent {
		g.ins("%s (%s)%s, %s", g.mov(), bases[0], idx, g.v(r))
		g.stats.Loads++
		return
	}
	g.ins("VMOVUPD (%s)%s, X%d", bases[0], idx, r)
	g.ins("VINSERTF128 $1, (%s)%s, Y%d, Y%d", bases[1], idx, r, r)
	g.stats.Loads += 2
}

// store writes r to element j of dst, each lane to its own base.
func (g *asmGen) store(j, r int) {
	idx := g.index("DX", j)
	if g.lanes == 1 || g.adjacent {
		g.ins("%s %s, (%s)%s", g.mov(), g.v(r), g.dst[0], idx)
		g.stats.Stores++
		return
	}
	g.ins("VMOVUPD X%d, (%s)%s", r, g.dst[0], idx)
	g.ins("VEXTRACTF128 $1, Y%d, (%s)%s", r, g.dst[1], idx)
	g.stats.Stores += 2
}

// arith emits r = a IN b for IN one of ADDPD, SUBPD, MULPD, XORPD, b a
// register or a memory operand. SSE2 copies a into r first (r ≠ b); VEX
// uses the three-operand form.
func (g *asmGen) arith(in, b string, a, r int) {
	if g.vex {
		g.ins("V%s %s, %s, %s", in, b, g.v(a), g.v(r))
		return
	}
	if r != a {
		g.ins("MOVAPD X%d, X%d", a, r)
	}
	g.ins("%s %s, X%d", in, b, r)
}

// swap emits r = (y, x) for a = (x, y), in each lane.
func (g *asmGen) swap(a, r int) {
	if g.vex {
		g.ins("VPERMILPD $5, %s, %s", g.v(a), g.v(r))
		return
	}
	if r != a {
		g.ins("MOVAPD X%d, X%d", a, r)
	}
	g.ins("SHUFPD $1, X%d, X%d", r, r)
}

// temp returns a register reserved until the end of the current op.
func (g *asmGen) temp(pinned ...int) int {
	r := g.alloc(pinned...)
	g.owner[r] = regTemp
	return r
}

// dest returns the register for the result of an op on a: a's own register
// when a dies here, else a fresh one.
func (g *asmGen) dest(a int, dies bool, pinned []int) int {
	if dies {
		return g.reg[a]
	}
	return g.temp(pinned...)
}

func mem(off int) string { return fmt.Sprintf("srconst<>+%d(SB)", off) }

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
		g.load(g.src, g.ss, op.j, r)
	case opLoadW:
		r = g.temp()
		t, u := g.temp(), g.temp()
		g.load(g.w, "R9", op.j, t) // (wr, wi)
		if g.vex {
			g.ins("VPERMILPD $15, %s, %s", g.v(t), g.v(u)) // (wi, wi)
			g.ins("VMOVDDUP %s, %s", g.v(t), g.v(t))       // (wr, wr)
		} else {
			g.ins("MOVAPD X%d, X%d", t, u)
			g.ins("UNPCKLPD X%d, X%d", t, t) // (wr, wr)
			g.ins("UNPCKHPD X%d, X%d", u, u) // (wi, wi)
		}
		g.arith("XORPD", mem(signLo), u, u)
		g.load(g.src, g.ss, op.j, r)   // (sr, si)
		g.arith("MULPD", g.v(r), t, t) // (sr·wr, si·wr)
		g.swap(r, r)                   // (si, sr)
		g.arith("MULPD", g.v(u), r, r) // (−si·wi, sr·wi)
		g.arith("ADDPD", g.v(t), r, r)
	case opStore:
		g.store(op.j, g.reg[op.a])
	case opAdd, opSub:
		in := "ADDPD"
		if op.kind == opSub {
			in = "SUBPD"
		}
		ra, rb := g.reg[op.a], g.reg[op.b]
		switch {
		case dies(op.a):
			r = ra
			g.arith(in, g.v(rb), ra, r)
		case op.kind == opAdd && dies(op.b):
			r = rb
			g.arith(in, g.v(ra), rb, r)
		case g.vex && dies(op.b):
			r = rb
			g.arith(in, g.v(rb), ra, r)
		default:
			r = g.temp(args...)
			g.arith(in, g.v(rb), ra, r)
		}
	case opNeg:
		r = g.dest(op.a, dies(op.a), args)
		g.arith("XORPD", mem(signBoth), g.reg[op.a], r)
	case opMulNegI, opMulPosI:
		r = g.dest(op.a, dies(op.a), args)
		mask := signHi // (y, x) → (y, −x)
		if op.kind == opMulPosI {
			mask = signLo // (y, x) → (−y, x)
		}
		g.swap(g.reg[op.a], r)
		g.arith("XORPD", mem(mask), r, r)
	case opMulConst:
		ra := g.reg[op.a]
		r = g.dest(op.a, dies(op.a), args)
		t := g.temp(args...)
		c, d := real(op.c), imag(op.c)
		g.swap(ra, t)                                // (y, x)
		g.arith("MULPD", g.consts.pair(c, c), ra, r) // (xc, yc)
		g.arith("MULPD", g.consts.pair(-d, d), t, t) // (−yd, xd)
		g.arith("ADDPD", g.v(t), r, r)
	case opScale:
		r = g.dest(op.a, dies(op.a), args)
		g.arith("MULPD", g.v(scaleReg), g.reg[op.a], r)
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

// scan records where prog reads each value and which stride multiples its
// addresses take, in order.
func (g *asmGen) scan(prog []srop) {
	g.uses = map[int][]int{}
	g.held = map[string]strideMult{}
	need := func(stride string, j int) {
		if k, _ := scaled(j); j > 0 && k > 1 {
			g.needs = append(g.needs, strideMult{stride, k})
		}
	}
	for i, op := range prog {
		for _, a := range op.args() {
			g.uses[a] = append(g.uses[a], i)
		}
		switch op.kind {
		case opLoad:
			need(g.ss, op.j)
		case opLoadW:
			need("R9", op.j)
			need(g.ss, op.j)
		case opStore:
			need("DX", op.j)
		}
	}
}

// lowerAll lowers prog with every vector register free but the fixed ones,
// and raises the frame to hold its spill slots.
func (g *asmGen) lowerAll(prog []srop) {
	g.reg, g.slot, g.free, g.slots, g.next = map[int]int{}, map[int]int{}, nil, 0, 0
	for i, v := range g.owner {
		if v != regFixed {
			g.owner[i] = regFree
		}
	}
	for i, op := range prog {
		g.pos = i
		g.lower(op)
	}
	g.stats.Frame = max(g.stats.Frame, 16*g.lanes*g.slots)
}

// asmKernel lowers the straight-line kernel srNn (srNw when twiddled) at
// one lane to the TEXT symbol srNnSSE2 (srNwSSE2), at two lanes to srNn2AVX
// (srNw2AVX), and returns its text and counts. The register conventions are
// DI/DX for dst and its byte stride, SI/CX for src, R8/R9 for w, and R10,
// R11 and R12 for lane 1's dst, src and w; whichever of AX, BX and R8–R13
// the kernel leaves free hold stride multiples.
func asmKernel(n int, twiddled bool, lanes int, consts *asmConsts) (string, AsmStats) {
	kernel := fmt.Sprintf("sr%dn", n)
	if twiddled {
		kernel = fmt.Sprintf("sr%dw", n)
	}
	name := kernel + "SSE2"
	if lanes == 2 {
		kernel += "2"
		name = kernel + "AVX"
	}
	prog := srProgram(n, twiddled)
	g := &asmGen{
		lanes:  lanes,
		vex:    lanes == 2,
		consts: consts,
		stats:  AsmStats{Name: kernel},
		dst:    [2]string{"DI", "R10"},
		src:    [2]string{"SI", "R11"},
		w:      [2]string{"R8", "R12"},
		ss:     "CX",
		spare:  []string{"AX", "BX", "R13"},
	}
	if !twiddled {
		g.spare = append(g.spare, "R8", "R9", "R12")
	}
	if lanes == 1 {
		g.spare = append(g.spare, "R10", "R11")
		if twiddled {
			g.spare = append(g.spare, "R12")
		}
	}
	g.scan(prog)
	g.lowerAll(prog)
	if lanes == 2 {
		g.ins("VZEROUPPER")
	}
	g.ins("RET")

	args := "dst *complex128, ds int, src *complex128, ss int"
	prologue := []string{
		"MOVQ dst+0(FP), DI", "MOVQ ds+8(FP), DX", "MOVQ src+16(FP), SI", "MOVQ ss+24(FP), CX",
		"SHLQ $4, DX", "SHLQ $4, CX",
	}
	argSize := 32
	if twiddled {
		args += ", w *complex128, ws int"
		prologue = append(prologue, "MOVQ w+32(FP), R8", "MOVQ ws+40(FP), R9", "SHLQ $4, R9")
		argSize = 48
	}
	if lanes == 2 {
		args += ", dst1, src1"
		prologue = append(prologue, fmt.Sprintf("MOVQ dst1+%d(FP), R10", argSize), fmt.Sprintf("MOVQ src1+%d(FP), R11", argSize+8))
		argSize += 16
		if twiddled {
			args += ", w1"
			prologue = append(prologue, fmt.Sprintf("MOVQ w1+%d(FP), R12", argSize))
			argSize += 8
		}
		args += " *complex128"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// func %s(%s)\n", name, args)
	fmt.Fprintf(&b, "TEXT ·%s(SB), $%d-%d\n", name, g.stats.Frame, argSize)
	for _, in := range prologue {
		fmt.Fprintf(&b, "\t%s\n", in)
	}
	g.stats.Instructions += len(prologue)
	b.WriteString(g.body.String())
	return b.String(), g.stats
}
