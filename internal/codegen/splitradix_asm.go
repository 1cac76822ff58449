package codegen

// The amd64 backend of the split-radix generator: it lowers a kernel's
// scheduled SSA program (srProgram) to assembly at three widths, and
// counts what it emits:
//
//   - one lane, SSE2: one complex128 per XMM register (the srNn body);
//   - two lanes, AVX: DFT_n ⊗ I_2, two complex128 per YMM register, lane 0
//     in the low half and lane 1 in the high half (srNn2). Each load is a
//     VMOVUPD of lane 0's element and a VINSERTF128 of lane 1's, each
//     store a VMOVUPD of the low half and a VEXTRACTF128 of the high one;
//     everything between is the one-lane program on Y registers, in the
//     three-operand VEX forms;
//   - four lanes, AVX-512: DFT_n ⊗ I_4, four complex128 per ZMM register
//     (srNn4), over 32 registers in the EVEX forms. The four lanes of an
//     element are adjacent, one 64-byte VMOVUPD per load and store.
//
// asmLoopKernel wraps the three bodies in one loop, the TEXT symbol
// srNnLoop (srNwLoop when twiddled), that runs DFT_n ⊗ I_m at lane offsets:
// quads while four or more lanes are left, then one pair, then one single.
// The quad body only ever sees adjacent lanes. A quad side whose lane
// offset is one element is read or written where it lies; any other side
// is gathered into a 64-byte-aligned stage before the body, or scattered
// from it after. A side whose elements are adjacent moves as 4×4 blocks, a
// 64-byte VMOVUPD per lane and a VSHUFF64X2 transpose; any other side moves
// one element at a time, a 16-byte move and three VINSERTF64X2 (the
// mirror, with VEXTRACTF64X2). Each form beats the next in incache-p2's
// geometry: staging the adjacent-lane sides too costs sr32 1.4× (stage 1)
// and 1.7× (stage 2), and moving the adjacent-element sides one element at
// a time 1.3× and 1.1×, on an AVX-512 Xeon.
//
// Both the stage and a single call's TEXT keep frames small, because a
// frame that does not fit a fresh goroutine's stack makes it grow first:
// the spawn backend's workers are fresh in every region. The stage is
// therefore the caller's buffer, not the loop's frame (in the loop's frame
// it made 2^6–2^11 spawn-backend transforms 16–35% slower), and a single
// call has its own TEXT, srNnSSE2 (srNwSSE2), the one-lane body in a frame
// of its spill slots alone, without the loop's state.
//
// The WHT pass kernels (wht.go) reuse the same lowering inside their loops,
// with two more forms: two lanes that are adjacent elements of one run,
// moved by one 32-byte VMOVUPD, and one lane in the VEX forms (the AVX
// kernel's tail).
//
// Registers are assigned by a linear scan over the scheduled order. A value
// keeps its register from its definition to its last use; an op whose
// operand dies there computes its result in that operand's register. When
// an op needs a register and all sixteen (thirty-two at four lanes) are
// taken, the value whose next use lies furthest ahead is evicted to a frame
// slot of one register's width (stored once, however often it is evicted)
// and reloaded before its next use.
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
// bit-identical to the Go kernel's, in every lane of every width. The
// one-lane body uses SSE2 alone (GOAMD64=v1): no ADDSUBPD, no MOVDDUP, no
// FMA. The two-lane body uses AVX1, the four-lane body AVX-512F and DQ,
// neither FMA; a loop that ran either ends its vector part in VZEROUPPER.

import (
	"fmt"
	"math"
	"math/bits"
	"sort"
	"strings"
)

// AsmStats counts what the amd64 backend emitted for one kernel.
type AsmStats struct {
	Name         string
	Instructions int // every instruction of the body (a WHT kernel's prologue and RET included)
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
	signHi   = 0   // (+0, −0): flips the imaginary part
	signLo   = 64  // (−0, +0): flips the real part
	signBoth = 128 // (−0, −0)
)

// asmConsts is the file's table of constants, srconst<>: the three sign
// masks, then (c, c) and (−d, d) for each distinct constant multiplier
// c+id. Each entry is 64 bytes, its 16-byte pair four times, so one table
// serves the 16-, 32- and 64-byte operands of the one-, two- and four-lane
// bodies.
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
	return 64 * i
}

func (t *asmConsts) pair(lo, hi float64) string {
	return fmt.Sprintf("srconst<>+%d(SB)", t.offset([2]uint64{math.Float64bits(lo), math.Float64bits(hi)}))
}

func (t *asmConsts) write(b *strings.Builder) {
	for i, w := range t.words {
		for h := 0; h < 8; h++ {
			fmt.Fprintf(b, "DATA srconst<>+%d(SB)/8, $%#016x\n", 64*i+8*h, w[h%2])
		}
	}
	// A symbol of 32 bytes or more is 32-byte aligned, so every entry is an
	// aligned 16-byte SSE2 memory operand.
	fmt.Fprintf(b, "GLOBL srconst<>(SB), RODATA|NOPTR, $%d\n", 64*len(t.words))
}

const (
	numXMM   = 32 // vector registers with AVX-512; the VEX and SSE2 forms name 16
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
	lanes int // values per register: 1 on X, 2 on Y, 4 on Z registers
	regs  int // vector registers the allocator may use: 16, or 32 at four lanes
	// vex selects the three-operand AVX forms (always at two and four
	// lanes); adjacent says that a register's lanes are adjacent elements
	// of one run, moved as one VMOVUPD, rather than elements of two lane
	// bases.
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
	switch g.lanes {
	case 2:
		return fmt.Sprintf("Y%d", r)
	case 4:
		return fmt.Sprintf("Z%d", r)
	}
	return fmt.Sprintf("X%d", r)
}

// laneImm repeats the 2-bit VPERMILPD selector sel for each of the
// register's lanes.
func (g *asmGen) laneImm(sel int) int {
	imm := 0
	for l := 0; l < g.lanes; l++ {
		imm |= sel << (2 * l)
	}
	return imm
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
	owner := g.owner[:max(g.regs, 16)]
	for r, v := range owner {
		if v == regFree {
			return r
		}
	}
	victim, far := -1, -1
	for r, v := range owner {
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
		g.ins("VPERMILPD $%d, %s, %s", g.laneImm(1), g.v(a), g.v(r))
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
			g.ins("VPERMILPD $%d, %s, %s", g.laneImm(3), g.v(t), g.v(u)) // (wi, wi)
			g.ins("VMOVDDUP %s, %s", g.v(t), g.v(t))                     // (wr, wr)
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

// asmBody lowers the straight-line kernel srNn (srNw when twiddled) at one,
// two or four lanes and returns its text and counts; the name counted is
// srNn at one lane, srNn2 and srNn4 at two and four. The register
// conventions are DI/DX for dst and its byte stride, SI/CX for src, R8/R9
// for w, and at two lanes R10, R11 and R12 for lane 1's dst, src and w;
// whichever of AX, BX and R8–R13 the body leaves free hold stride
// multiples. The body keeps no state in general-purpose registers across
// it, so asmLoopKernel may run it in a loop.
func asmBody(n int, twiddled bool, lanes int, consts *asmConsts) (string, AsmStats) {
	name := fmt.Sprintf("sr%dn", n)
	if twiddled {
		name = fmt.Sprintf("sr%dw", n)
	}
	if lanes > 1 {
		name += fmt.Sprint(lanes)
	}
	prog := srProgram(n, twiddled)
	g := &asmGen{
		lanes:    lanes,
		regs:     16,
		vex:      lanes > 1,
		adjacent: lanes == 4,
		consts:   consts,
		stats:    AsmStats{Name: name},
		dst:      [2]string{"DI", "R10"},
		src:      [2]string{"SI", "R11"},
		w:        [2]string{"R8", "R12"},
		ss:       "CX",
		spare:    []string{"AX", "BX", "R13"},
	}
	if lanes == 4 {
		g.regs = 32
	}
	if !twiddled {
		g.spare = append(g.spare, "R8", "R9", "R12")
	}
	if lanes != 2 {
		g.spare = append(g.spare, "R10", "R11")
		if twiddled {
			g.spare = append(g.spare, "R12")
		}
	}
	g.scan(prog)
	g.lowerAll(prog)
	return g.body.String(), g.stats
}

// asmLoopKernel lowers the straight-line kernel srNn (srNw when twiddled)
// to two TEXT symbols. srNnSSE2 (srNwSSE2) is a single call, the one-lane
// body alone, so a single call's frame holds only its spill slots.
// srNnLoop (srNwLoop) is the loop entry: m calls at lane offsets dl, sl
// (and wl), DFT_n ⊗ I_m. Its first argument, isa, names the widest body
// the loop may run: 0 runs every lane through the SSE2 body, 1 runs lanes
// in AVX pairs first, and 2 in AVX-512 quads, then at most one pair. Its
// last argument is the quads' stage, 64 + 128·n bytes the caller provides
// off the goroutine's stack (nil when no quad side is staged). The loop's
// state lives in the frame, above the bodies' spill slots: the three lane-0
// pointers, the six byte strides and lane offsets, the lanes left, and the
// stage's 64-byte-aligned address. It returns the text and the three
// bodies' counts, one lane first.
func asmLoopKernel(n int, twiddled bool, consts *asmConsts) (string, []AsmStats) {
	flavor := "n"
	if twiddled {
		flavor = "w"
	}
	name := fmt.Sprintf("sr%d%sLoop", n, flavor)
	var bodies [3]string
	var stats []AsmStats
	spill := 0
	for i, lanes := range []int{1, 2, 4} {
		text, st := asmBody(n, twiddled, lanes, consts)
		bodies[i] = text
		stats = append(stats, st)
		spill = max(spill, st.Frame)
	}
	var b strings.Builder
	ins := func(format string, args ...any) {
		b.WriteByte('\t')
		fmt.Fprintf(&b, format, args...)
		b.WriteByte('\n')
	}

	// The single call, srNnSSE2 (srNwSSE2): the one-lane body in a frame
	// of its own spill slots.
	args := "dst *complex128, ds int, src *complex128, ss int"
	argSize := 32
	if twiddled {
		args += ", w *complex128, ws int"
		argSize += 16
	}
	fmt.Fprintf(&b, "// func sr%d%sSSE2(%s)\n", n, flavor, args)
	fmt.Fprintf(&b, "TEXT ·sr%d%sSSE2(SB), $%d-%d\n", n, flavor, stats[0].Frame, argSize)
	ins("MOVQ dst+0(FP), DI")
	ins("MOVQ ds+8(FP), DX")
	ins("SHLQ $4, DX")
	ins("MOVQ src+16(FP), SI")
	ins("MOVQ ss+24(FP), CX")
	ins("SHLQ $4, CX")
	if twiddled {
		ins("MOVQ w+32(FP), R8")
		ins("MOVQ ws+40(FP), R9")
		ins("SHLQ $4, R9")
	}
	b.WriteString(bodies[0])
	ins("RET")
	b.WriteByte('\n')

	// Frame slots of the loop state, from state.
	const (
		sDst = 8 * iota
		sSrc
		sW
		sDS
		sSS
		sWS
		sDL
		sSL
		sWL
		sM
		sStage
		stateLen
	)
	state := spill
	at := func(slot int) string { return fmt.Sprintf("%d(SP)", state+slot) }
	frame := state + stateLen

	label := func(l string) { fmt.Fprintf(&b, "%s:\n", l) }
	args = "isa int, dst *complex128, ds, dl int, src *complex128, ss, sl int"
	argSize = 56
	if twiddled {
		args += ", w *complex128, ws, wl"
		argSize += 24
	}
	args += ", m int, stage *srStage"
	fmt.Fprintf(&b, "// func %s(%s)\n", name, args)
	fmt.Fprintf(&b, "TEXT ·%s(SB), $%d-%d\n", name, frame, argSize+16)
	// The state: pointers as they are, strides and lane offsets in bytes.
	type arg struct {
		name  string
		slot  int
		bytes bool
	}
	in := []arg{{"dst", sDst, false}, {"ds", sDS, true}, {"dl", sDL, true}, {"src", sSrc, false}, {"ss", sSS, true}, {"sl", sSL, true}}
	if twiddled {
		in = append(in, arg{"w", sW, false}, arg{"ws", sWS, true}, arg{"wl", sWL, true})
	}
	in = append(in, arg{"m", sM, false})
	for i, a := range in {
		ins("MOVQ %s+%d(FP), AX", a.name, 8+8*i)
		if a.bytes {
			ins("SHLQ $4, AX")
		}
		ins("MOVQ AX, %s", at(a.slot))
	}
	ins("MOVQ stage+%d(FP), AX", argSize+8)
	ins("ADDQ $63, AX")
	ins("ANDQ $-64, AX")
	ins("MOVQ AX, %s", at(sStage))
	ins("MOVQ isa+0(FP), AX")
	ins("CMPQ AX, $1")
	ins("JLT single")
	ins("JEQ pair")

	// side names one side of a call: its lane-0 pointer and byte stride
	// slots, its lane offset slot, the registers the body reads it through
	// (lane 1's base at two lanes), and its stage's byte offset from the
	// aligned stage address.
	type side struct {
		ptr, stride, lane int
		base, sreg, lane1 string
		stage             int
	}
	srcSide := side{sSrc, sSS, sSL, "SI", "CX", "R11", 0}
	wSide := side{sW, sWS, sWL, "R8", "R9", "R12", 64 * n}
	dstSide := side{sDst, sDS, sDL, "DI", "DX", "R10", 0}
	// transpose turns Z0–Z3, four rows of four complex128, into their
	// columns, through Z4–Z7: a 4×4 transpose of 128-bit blocks.
	transpose := func() {
		ins("VSHUFF64X2 $0x44, Z1, Z0, Z4")
		ins("VSHUFF64X2 $0xee, Z1, Z0, Z5")
		ins("VSHUFF64X2 $0x44, Z3, Z2, Z6")
		ins("VSHUFF64X2 $0xee, Z3, Z2, Z7")
		ins("VSHUFF64X2 $0x88, Z6, Z4, Z0")
		ins("VSHUFF64X2 $0xdd, Z6, Z4, Z1")
		ins("VSHUFF64X2 $0x88, Z7, Z5, Z2")
		ins("VSHUFF64X2 $0xdd, Z7, Z5, Z3")
	}
	// point loads a quad side's registers: the side itself when its lanes
	// are adjacent, else its stage, gathered first when gather is set.
	point := func(s side, tag string, gather bool) {
		ins("MOVQ %s, %s", at(s.ptr), s.base)
		ins("MOVQ %s, %s", at(s.stride), s.sreg)
		ins("CMPQ %s, $16", at(s.lane))
		ins("JEQ %sq", tag)
		if gather {
			// R11 walks the side, R10 the stage; AX is the lane offset and
			// BX three of them. Lanes whose elements are adjacent move as
			// 4×4 blocks: four 64-byte loads, one per lane, transposed
			// into four stage rows.
			ins("MOVQ %s, R11", s.base)
			ins("MOVQ %s, R10", at(sStage))
			if s.stage > 0 {
				ins("ADDQ $%d, R10", s.stage)
			}
			ins("MOVQ %s, AX", at(s.lane))
			ins("LEAQ (AX)(AX*2), BX")
			ins("CMPQ %s, $16", s.sreg)
			ins("JNE g%s", tag)
			ins("MOVQ $%d, R12", n/4)
			label("t" + tag)
			ins("VMOVUPD (R11), Z0")
			ins("VMOVUPD (R11)(AX*1), Z1")
			ins("VMOVUPD (R11)(AX*2), Z2")
			ins("VMOVUPD (R11)(BX*1), Z3")
			transpose()
			for r := 0; r < 4; r++ {
				ins("VMOVUPD Z%d, %d(R10)", r, 64*r)
			}
			ins("ADDQ $64, R11")
			ins("ADDQ $256, R10")
			ins("DECQ R12")
			ins("JNZ t%s", tag)
			ins("JMP s%s", tag)
			label("g" + tag)
			ins("MOVQ $%d, R12", n)
			label("i" + tag)
			ins("VMOVUPD (R11), X0")
			ins("VINSERTF64X2 $1, (R11)(AX*1), Z0, Z0")
			ins("VINSERTF64X2 $2, (R11)(AX*2), Z0, Z0")
			ins("VINSERTF64X2 $3, (R11)(BX*1), Z0, Z0")
			ins("VMOVUPD Z0, (R10)")
			ins("ADDQ %s, R11", s.sreg)
			ins("ADDQ $64, R10")
			ins("DECQ R12")
			ins("JNZ i%s", tag)
			label("s" + tag)
		}
		ins("MOVQ %s, %s", at(sStage), s.base)
		if s.stage > 0 {
			ins("ADDQ $%d, %s", s.stage, s.base)
		}
		ins("MOVQ $64, %s", s.sreg)
		label(tag + "q")
	}
	// advance moves a side's lane-0 pointer on by k lanes.
	advance := func(s side, k int) {
		ins("MOVQ %s, AX", at(s.lane))
		if k > 1 {
			ins("SHLQ $%d, AX", bits.TrailingZeros(uint(k)))
		}
		ins("ADDQ AX, %s", at(s.ptr))
	}
	sides := []side{dstSide, srcSide}
	if twiddled {
		sides = append(sides, wSide)
	}
	next := func(k int, loop string) {
		for _, s := range sides {
			advance(s, k)
		}
		ins("SUBQ $%d, %s", k, at(sM))
		ins("JMP %s", loop)
	}

	label("quad")
	ins("CMPQ %s, $4", at(sM))
	ins("JLT pair")
	point(srcSide, "src", true)
	if twiddled {
		point(wSide, "w", true)
	}
	point(dstSide, "dst", false)
	b.WriteString(bodies[2])
	ins("CMPQ %s, $16", at(sDL))
	ins("JEQ quadnext")
	// Scatter the stage to dst: R11 walks the stage, R10 dst, R12 is dst's
	// stride, AX the lane offset and BX three of them; adjacent elements
	// move as transposed 4×4 blocks, as in the gather.
	ins("MOVQ %s, R11", at(sStage))
	ins("MOVQ %s, R10", at(sDst))
	ins("MOVQ %s, R12", at(sDS))
	ins("MOVQ %s, AX", at(sDL))
	ins("LEAQ (AX)(AX*2), BX")
	ins("CMPQ R12, $16")
	ins("JNE xdst")
	ins("MOVQ $%d, R13", n/4)
	label("tdst")
	for r := 0; r < 4; r++ {
		ins("VMOVUPD %d(R11), Z%d", 64*r, r)
	}
	transpose()
	ins("VMOVUPD Z0, (R10)")
	ins("VMOVUPD Z1, (R10)(AX*1)")
	ins("VMOVUPD Z2, (R10)(AX*2)")
	ins("VMOVUPD Z3, (R10)(BX*1)")
	ins("ADDQ $256, R11")
	ins("ADDQ $64, R10")
	ins("DECQ R13")
	ins("JNZ tdst")
	ins("JMP quadnext")
	label("xdst")
	ins("MOVQ $%d, R13", n)
	label("sdst")
	ins("VMOVUPD (R11), Z0")
	ins("VMOVUPD X0, (R10)")
	ins("VEXTRACTF64X2 $1, Z0, (R10)(AX*1)")
	ins("VEXTRACTF64X2 $2, Z0, (R10)(AX*2)")
	ins("VEXTRACTF64X2 $3, Z0, (R10)(BX*1)")
	ins("ADDQ $64, R11")
	ins("ADDQ R12, R10")
	ins("DECQ R13")
	ins("JNZ sdst")
	label("quadnext")
	next(4, "quad")

	label("pair")
	ins("CMPQ %s, $2", at(sM))
	ins("JLT vzero")
	for _, s := range sides {
		ins("MOVQ %s, %s", at(s.ptr), s.base)
		ins("MOVQ %s, %s", at(s.stride), s.sreg)
		ins("MOVQ %s, %s", at(s.lane), s.lane1)
		ins("ADDQ %s, %s", s.base, s.lane1)
	}
	b.WriteString(bodies[1])
	next(2, "pair")
	label("vzero")
	ins("VZEROUPPER")

	label("single")
	ins("CMPQ %s, $0", at(sM))
	ins("JEQ done")
	for _, s := range sides {
		ins("MOVQ %s, %s", at(s.ptr), s.base)
		ins("MOVQ %s, %s", at(s.stride), s.sreg)
	}
	b.WriteString(bodies[0])
	next(1, "single")
	label("done")
	ins("RET")
	return b.String(), stats
}
