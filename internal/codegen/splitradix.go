package codegen

// Split-radix codelet generator: emits the straight-line conjugate-pair
// split-radix kernels and the composed radix-16 kernels that form
// internal/codelet's generated tier (zsplitradix*.go, zsplitradix_amd64.s).
// The WHT pass kernels (wht.go) are recorded, scheduled and lowered by the
// same machinery below.
// Each size comes in two flavors:
//
//   - srNn: no-twiddle leaf kernel, the base case of an untwiddled stage;
//   - srNw: fused-twiddle kernel taking a *strided* scale vector, so the
//     executor can hand a kernel its slice of a larger twiddle diagonal
//     (the D_{m,k} column, or a stage-1 window of a fused input scale)
//     without a separate read/write pass over the working set.
//
// The generator works in two steps. It first walks the conjugate-pair
// split-radix recursion DFT_n = U ⊕ ω^k·Z ⊕ ω^{-k}·Z' symbolically, recording
// one SSA-style assignment per arithmetic op in recursion order (the half
// DFT U, then the quarter DFTs Z and Z', then their combine) and
// constant-folding the trivial twiddles (±1, ±i). It then schedules the
// body for registers: each src load (with its w scale in the fused flavor)
// is emitted just before the first assignment that uses it, and each dst
// store right after the assignment that computes its value. Go does not
// move bounds-checked loads and stores, so the emitted order is the order
// the machine runs; keeping every value's live range short about halves
// the kernels' stack spill traffic. The peak live count (n+2, at the final
// combine) does not fall, and computing the quarter DFTs before the half
// DFT spills more, so the arithmetic keeps its recursion order. Every
// split-radix output depends on every input, so all loads still precede
// the first store and the kernels stay safe in place (dst == src at the
// same offset and stride). Composed sizes (128, 256) are emitted as
// two-stage Cooley-Tukey loops over the straight-line kernels with the
// D_{m,k} diagonal fused into stage 2 — the same loop merging the executor
// performs, frozen into the codelet.
//
// Each straight-line size also has a two-lane form, srNn2 and srNw2: the
// paper's vectorization rule DFT_n ⊗ I_ν at ν = 2, two adjacent calls of
// the same kernel with lane 1 at its own dst and src offsets and its own
// scale vector. The executor's stage loops and the composed kernels' loops
// run their iterations in such pairs.
//
// The scheduled body is a list of typed ops (srop: load, twiddled load,
// store, add, sub, neg, ±i rotation, constant multiply, real scale) with
// two backends. printGo renders it as Go statements: the straight-line kernels
// of zsplitradix_generic.go, built for other architectures and under the
// purego tag (where a two-lane kernel is two calls), and the CI smoke
// programs. The amd64 backend (splitradix_asm.go) lowers the same list to
// SSE2 assembly with one XMM register per live value, and a second time to
// AVX assembly with one YMM register per pair of lane values
// (zsplitradix_amd64.s), called through Go wrappers that check every run's
// first and last index (zsplitradix_amd64.go) and take the AVX kernel only
// when the CPU has AVX. Its arithmetic is Go's, so every build produces the
// same bits.

import (
	"fmt"
	"go/format"
	"strings"

	"spiralfft/internal/twiddle"
)

// SplitRadixStraight lists the sizes emitted as fully straight-line
// conjugate-pair split-radix kernels, ascending.
var SplitRadixStraight = []int{8, 16, 32, 64}

// SplitRadixComposed lists the two-stage kernels as {n, m, k} triples:
// DFT_n = (DFT_m ⊗ I_k) · D_{m,k} · (I_m ⊗ DFT_k) · L^n_m with both stages
// calling the fused straight-line kernels above.
var SplitRadixComposed = [][3]int{{128, 16, 8}, {256, 16, 16}}

// SplitRadixSizes lists every size the generator emits, ascending.
func SplitRadixSizes() []int {
	out := append([]int(nil), SplitRadixStraight...)
	for _, c := range SplitRadixComposed {
		out = append(out, c[0])
	}
	return out
}

// opKind is the kind of one op of a straight-line kernel's SSA program.
type opKind uint8

const (
	opLoad     opKind = iota // v := src[soff+j·ss]
	opLoadW                  // v := src[soff+j·ss] * w[woff+j·ws]
	opStore                  // dst[doff+j·ds] = a
	opAdd                    // v := a + b
	opSub                    // v := a - b
	opNeg                    // v := -a
	opMulNegI                // v := a·(-i)
	opMulPosI                // v := a·(+i)
	opMulConst               // v := c·a
	opScale                  // v := a·s, s real (two real multiplies)
)

// srop is one op of a kernel's SSA program. Values are numbered in creation
// order and printed as v<number>; the Go printer (printGo) and the amd64
// backend (splitradix_asm.go) read the same scheduled op list.
type srop struct {
	kind opKind
	v    int        // value defined; unused by opStore
	a, b int        // operands
	j    int        // element index of a load or store
	c    complex128 // opMulConst's constant
}

// args returns the values op reads.
func (op srop) args() []int {
	switch op.kind {
	case opLoad, opLoadW:
		return nil
	case opAdd, opSub:
		return []int{op.a, op.b}
	}
	return []int{op.a}
}

// srgen records a straight-line body: the input loads by value and one
// SSA-style op per arithmetic operation, in recursion order.
type srgen struct {
	loads map[int]srop // value -> its load
	ops   []srop
	v     int
}

func (g *srgen) name() int {
	g.v++
	return g.v - 1
}

// load records an input load; schedule emits it at its first use.
func (g *srgen) load(j int, twiddled bool) int {
	op := srop{kind: opLoad, v: g.name(), j: j}
	if twiddled {
		op.kind = opLoadW
	}
	g.loads[op.v] = op
	return op.v
}

func (g *srgen) assign(op srop) int {
	op.v = g.name()
	g.ops = append(g.ops, op)
	return op.v
}

func (g *srgen) add(a, b int) int { return g.assign(srop{kind: opAdd, a: a, b: b}) }
func (g *srgen) sub(a, b int) int { return g.assign(srop{kind: opSub, a: a, b: b}) }

// mulNegI emits a·(-i): (x+iy)(-i) = y - ix.
func (g *srgen) mulNegI(a int) int { return g.assign(srop{kind: opMulNegI, a: a}) }

// mulPosI emits a·(+i): (x+iy)(i) = -y + ix.
func (g *srgen) mulPosI(a int) int { return g.assign(srop{kind: opMulPosI, a: a}) }

// mulOmega emits a·ω_n^e with the trivial twiddles (±1, ±i) folded away.
func (g *srgen) mulOmega(n, e int, a int) int {
	e = ((e % n) + n) % n
	switch {
	case e == 0:
		return a
	case 2*e == n:
		return g.assign(srop{kind: opNeg, a: a})
	case 4*e == n:
		return g.mulNegI(a)
	case 4*e == 3*n:
		return g.mulPosI(a)
	}
	return g.assign(srop{kind: opMulConst, a: a, c: twiddle.Omega(n, e)})
}

// dft records a DFT of the given values and returns the output values.
// Base cases are the 2- and 4-point butterflies; everything larger uses the
// conjugate-pair split-radix step
//
//	X_k       = U_k + (ω^k·Z_k + ω^{-k}·Z'_k)
//	X_{k+n/2} = U_k - (ω^k·Z_k + ω^{-k}·Z'_k)
//	X_{k+n/4}  = U_{k+n/4} - i·(ω^k·Z_k - ω^{-k}·Z'_k)
//	X_{k+3n/4} = U_{k+n/4} + i·(ω^k·Z_k - ω^{-k}·Z'_k)
//
// with U = DFT_{n/2}(evens), Z = DFT_{n/4}(x_{4m+1}), Z' = DFT_{n/4}(x_{4m-1}).
func (g *srgen) dft(x []int) []int {
	n := len(x)
	switch n {
	case 1:
		return x
	case 2:
		return []int{g.add(x[0], x[1]), g.sub(x[0], x[1])}
	case 4:
		t0 := g.add(x[0], x[2])
		t1 := g.sub(x[0], x[2])
		t2 := g.add(x[1], x[3])
		t3 := g.mulNegI(g.sub(x[1], x[3]))
		return []int{g.add(t0, t2), g.add(t1, t3), g.sub(t0, t2), g.sub(t1, t3)}
	}
	if n%4 != 0 {
		panic(fmt.Sprintf("codegen: split radix needs 4 | n, got %d", n))
	}
	ev := make([]int, n/2)
	for i := range ev {
		ev[i] = x[2*i]
	}
	z := make([]int, n/4)
	zp := make([]int, n/4)
	for i := range z {
		z[i] = x[4*i+1]
		zp[i] = x[((4*i-1)%n+n)%n]
	}
	u := g.dft(ev)
	zz := g.dft(z)
	zzp := g.dft(zp)
	out := make([]int, n)
	for k := 0; k < n/4; k++ {
		wz := g.mulOmega(n, k, zz[k])
		wzp := g.mulOmega(n, -k, zzp[k])
		s := g.add(wz, wzp)
		d := g.mulNegI(g.sub(wz, wzp)) // -i·(ω^k·Z_k - ω^{-k}·Z'_k)
		out[k] = g.add(u[k], s)
		out[k+n/2] = g.sub(u[k], s)
		out[k+n/4] = g.add(u[k+n/4], d)
		out[k+3*n/4] = g.sub(u[k+n/4], d)
	}
	return out
}

// strideIndex renders base + j·stride with the j ∈ {0, 1} forms simplified.
func strideIndex(base, stride string, j int) string {
	switch j {
	case 0:
		return base
	case 1:
		return base + "+" + stride
	default:
		return fmt.Sprintf("%s+%d*%s", base, j, stride)
	}
}

// schedule orders the recorded body for registers: each load just before
// the first op that reads it, and the store of each output right after the
// op that computes it (out[k] goes to dst[doff+k·ds]). Each load is
// scheduled once and dropped from g.loads.
func (g *srgen) schedule(out []int) []srop {
	stores := make(map[int][]int, len(out))
	for k, v := range out {
		stores[v] = append(stores[v], k)
	}
	var prog []srop
	emit := func(op srop) {
		prog = append(prog, op)
		for _, k := range stores[op.v] {
			prog = append(prog, srop{kind: opStore, a: op.v, j: k})
		}
	}
	for _, op := range g.ops {
		for _, a := range op.args() {
			if load, ok := g.loads[a]; ok {
				emit(load)
				delete(g.loads, a)
			}
		}
		emit(op)
	}
	return prog
}

// srProgram records and schedules one straight-line kernel: loads (scaled
// by the strided w when twiddled), the DFT network, and the stores.
func srProgram(n int, twiddled bool) []srop {
	g := &srgen{loads: make(map[int]srop, n)}
	x := make([]int, n)
	for j := range x {
		x[j] = g.load(j, twiddled)
	}
	return g.schedule(g.dft(x))
}

// goRuns names the Go offset and stride variables of the dst, src and w
// runs printGo indexes element j of.
type goRuns struct{ doff, ds, soff, ss, woff, ws string }

// srRuns are the split-radix kernels' runs.
var srRuns = goRuns{"doff", "ds", "soff", "ss", "woff", "ws"}

// printGo renders a scheduled program as Go statements over the runs ix.
func printGo(prog []srop, ix goRuns) string {
	var b strings.Builder
	for _, op := range prog {
		b.WriteByte('\t')
		switch op.kind {
		case opLoad:
			fmt.Fprintf(&b, "v%d := src[%s]", op.v, strideIndex(ix.soff, ix.ss, op.j))
		case opLoadW:
			fmt.Fprintf(&b, "v%d := src[%s] * w[%s]", op.v, strideIndex(ix.soff, ix.ss, op.j), strideIndex(ix.woff, ix.ws, op.j))
		case opStore:
			fmt.Fprintf(&b, "dst[%s] = v%d", strideIndex(ix.doff, ix.ds, op.j), op.a)
		case opAdd:
			fmt.Fprintf(&b, "v%d := v%d + v%d", op.v, op.a, op.b)
		case opSub:
			fmt.Fprintf(&b, "v%d := v%d - v%d", op.v, op.a, op.b)
		case opNeg:
			fmt.Fprintf(&b, "v%d := -v%d", op.v, op.a)
		case opMulNegI:
			fmt.Fprintf(&b, "v%d := complex(imag(v%d), -real(v%d))", op.v, op.a, op.a)
		case opMulPosI:
			fmt.Fprintf(&b, "v%d := complex(-imag(v%d), real(v%d))", op.v, op.a, op.a)
		case opMulConst:
			fmt.Fprintf(&b, "v%d := complex(%.17g, %.17g) * v%d", op.v, real(op.c), imag(op.c), op.a)
		case opScale:
			fmt.Fprintf(&b, "v%d := complex(real(v%d)*s, imag(v%d)*s)", op.v, op.a, op.a)
		}
		b.WriteByte('\n')
	}
	return b.String()
}

// srBody emits the scheduled body of one straight-line kernel as Go.
func srBody(n int, twiddled bool) string {
	return printGo(srProgram(n, twiddled), srRuns)
}

// emitStraight writes the Go plain and fused-twiddle kernels of one
// straight-line size, and their two-lane forms as two single-lane calls.
func emitStraight(b *strings.Builder, n int) {
	fmt.Fprintf(b, "// sr%dn computes a no-twiddle %d-point conjugate-pair split-radix DFT.\n", n, n)
	fmt.Fprintf(b, "func sr%dn(dst []complex128, doff, ds int, src []complex128, soff, ss int) {\n", n)
	b.WriteString(srBody(n, false))
	b.WriteString("}\n\n")
	fmt.Fprintf(b, "// sr%dw is sr%dn with a strided per-input scale vector fused into the loads.\n", n, n)
	fmt.Fprintf(b, "func sr%dw(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int) {\n", n)
	b.WriteString(srBody(n, true))
	b.WriteString("}\n\n")
	fmt.Fprintf(b, "// sr%dn2 runs sr%dn on two lanes, lane 1 at doff+dl and soff+sl.\n", n, n)
	fmt.Fprintf(b, "func sr%dn2(%s) {\n", n, pairParams(false))
	fmt.Fprintf(b, "\tsr%dn(dst, doff, ds, src, soff, ss)\n\tsr%dn(dst, doff+dl, ds, src, soff+sl, ss)\n}\n\n", n, n)
	fmt.Fprintf(b, "// sr%dw2 runs sr%dw on two lanes, lane 1 at doff+dl and soff+sl with the\n// scale vector w1 from w1off.\n", n, n)
	fmt.Fprintf(b, "func sr%dw2(%s) {\n", n, pairParams(true))
	fmt.Fprintf(b, "\tsr%dw(dst, doff, ds, src, soff, ss, w0, w0off, ws)\n\tsr%dw(dst, doff+dl, ds, src, soff+sl, ss, w1, w1off, ws)\n}\n\n", n, n)
}

// pairParams is the parameter list of the two-lane kernels srNn2 and srNw2.
func pairParams(twiddled bool) string {
	p := "dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int"
	if twiddled {
		p += ", w0 []complex128, w0off int, w1 []complex128, w1off, ws int"
	}
	return p
}

// emitAsmWrappers writes the amd64 entry points of one straight-line size:
// each checks the first and the last index of every run it is handed, then
// calls its assembly kernel with pointers to the first elements. The
// two-lane entry points run one AVX call when the CPU has AVX and two SSE2
// calls when it has not.
func emitAsmWrappers(b *strings.Builder, n int) {
	fmt.Fprintf(b, "// sr%dn computes a no-twiddle %d-point conjugate-pair split-radix DFT.\n", n, n)
	fmt.Fprintf(b, "func sr%dn(dst []complex128, doff, ds int, src []complex128, soff, ss int) {\n", n)
	fmt.Fprintf(b, "\t_ = dst[srLast(doff, ds, %d)]\n\t_ = src[srLast(soff, ss, %d)]\n", n, n)
	fmt.Fprintf(b, "\tsr%dnSSE2(&dst[doff], ds, &src[soff], ss)\n}\n\n", n)
	fmt.Fprintf(b, "// sr%dw is sr%dn with a strided per-input scale vector fused into the loads.\n", n, n)
	fmt.Fprintf(b, "func sr%dw(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int) {\n", n)
	fmt.Fprintf(b, "\t_ = dst[srLast(doff, ds, %d)]\n\t_ = src[srLast(soff, ss, %d)]\n\t_ = w[srLast(woff, ws, %d)]\n", n, n, n)
	fmt.Fprintf(b, "\tsr%dwSSE2(&dst[doff], ds, &src[soff], ss, &w[woff], ws)\n}\n\n", n)
	fmt.Fprintf(b, "// sr%dn2 runs sr%dn on two lanes, lane 1 at doff+dl and soff+sl.\n", n, n)
	fmt.Fprintf(b, "func sr%dn2(%s) {\n", n, pairParams(false))
	fmt.Fprintf(b, "\td1, s1 := srLanes(dst, doff, ds, dl, %d), srLanes(src, soff, ss, sl, %d)\n", n, n)
	fmt.Fprintf(b, "\tif hasAVX {\n\t\tsr%dn2AVX(&dst[doff], ds, &src[soff], ss, &dst[d1], &src[s1])\n\t\treturn\n\t}\n", n)
	fmt.Fprintf(b, "\tsr%dnSSE2(&dst[doff], ds, &src[soff], ss)\n\tsr%dnSSE2(&dst[d1], ds, &src[s1], ss)\n}\n\n", n, n)
	fmt.Fprintf(b, "// sr%dw2 runs sr%dw on two lanes, lane 1 at doff+dl and soff+sl with the\n// scale vector w1 from w1off.\n", n, n)
	fmt.Fprintf(b, "func sr%dw2(%s) {\n", n, pairParams(true))
	fmt.Fprintf(b, "\td1, s1 := srLanes(dst, doff, ds, dl, %d), srLanes(src, soff, ss, sl, %d)\n", n, n)
	fmt.Fprintf(b, "\tsrRun(w0, w0off, ws, %d)\n\tsrRun(w1, w1off, ws, %d)\n", n, n)
	fmt.Fprintf(b, "\tif hasAVX {\n\t\tsr%dw2AVX(&dst[doff], ds, &src[soff], ss, &w0[w0off], ws, &dst[d1], &src[s1], &w1[w1off])\n\t\treturn\n\t}\n", n)
	fmt.Fprintf(b, "\tsr%dwSSE2(&dst[doff], ds, &src[soff], ss, &w0[w0off], ws)\n\tsr%dwSSE2(&dst[d1], ds, &src[s1], ss, &w1[w1off], ws)\n}\n\n", n, n)
	b.WriteString("//go:noescape\n")
	fmt.Fprintf(b, "func sr%dnSSE2(dst *complex128, ds int, src *complex128, ss int)\n\n", n)
	b.WriteString("//go:noescape\n")
	fmt.Fprintf(b, "func sr%dwSSE2(dst *complex128, ds int, src *complex128, ss int, w *complex128, ws int)\n\n", n)
	b.WriteString("//go:noescape\n")
	fmt.Fprintf(b, "func sr%dn2AVX(dst *complex128, ds int, src *complex128, ss int, dst1, src1 *complex128)\n\n", n)
	b.WriteString("//go:noescape\n")
	fmt.Fprintf(b, "func sr%dw2AVX(dst *complex128, ds int, src *complex128, ss int, w *complex128, ws int, dst1, src1, w1 *complex128)\n\n", n)
}

// emitWrapper writes the codelet.Func entry point dispatching on w.
func emitWrapper(b *strings.Builder, n int) {
	fmt.Fprintf(b, "func sr%d(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128) {\n", n)
	b.WriteString("\tif w == nil {\n")
	fmt.Fprintf(b, "\t\tsr%dn(dst, doff, ds, src, soff, ss)\n", n)
	b.WriteString("\t} else {\n")
	fmt.Fprintf(b, "\t\tsr%dw(dst, doff, ds, src, soff, ss, w, 0, 1)\n", n)
	b.WriteString("\t}\n}\n\n")
}

// emitPairWrappers writes the codelet.Func2 and codelet.FuncW2 entry points
// of a straight-line size over its two-lane kernels.
func emitPairWrappers(b *strings.Builder, n int) {
	fmt.Fprintf(b, "func sr%dPair(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w0, w1 []complex128) {\n", n)
	b.WriteString("\tif w0 == nil {\n")
	fmt.Fprintf(b, "\t\tsr%dn2(dst, doff, ds, dl, src, soff, ss, sl)\n", n)
	b.WriteString("\t} else {\n")
	fmt.Fprintf(b, "\t\tsr%dw2(dst, doff, ds, dl, src, soff, ss, sl, w0, 0, w1, 0, 1)\n", n)
	b.WriteString("\t}\n}\n\n")
	fmt.Fprintf(b, "func sr%dwPair(dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w []complex128, woff, ws, wl int) {\n", n)
	fmt.Fprintf(b, "\tsr%dw2(dst, doff, ds, dl, src, soff, ss, sl, w, woff, w, woff+wl, ws)\n}\n\n", n)
}

// emitComposed writes the two-stage kernel n = m·k: stage 1 runs m fused
// DFT_k gathers (input scale folded in when present), stage 2 runs k fused
// DFT_m column transforms with the D_{m,k} diagonal from the package-level
// table — no separate twiddle pass in either flavor. Each stage runs its
// adjacent iterations in pairs through the two-lane kernels.
func emitComposed(b *strings.Builder, n, m, k int) {
	if m%2 != 0 || k%2 != 0 {
		panic(fmt.Sprintf("codegen: composed kernel %d = %d·%d pairs its iterations, want both even", n, m, k))
	}
	table := fmt.Sprintf("srtw%dx%d", m, k)
	fmt.Fprintf(b, "// sr%dn computes DFT_%d = (DFT_%d ⊗ I_%d) · D_{%d,%d} · (I_%d ⊗ DFT_%d) · L^%d_%d\n", n, n, m, k, m, k, m, k, n, m)
	fmt.Fprintf(b, "// over the straight-line kernels, with the diagonal fused into stage 2.\n")
	fmt.Fprintf(b, "func sr%dn(dst []complex128, doff, ds int, src []complex128, soff, ss int) {\n", n)
	fmt.Fprintf(b, "\tvar t [%d]complex128\n", n)
	fmt.Fprintf(b, "\tfor i := 0; i < %d; i += 2 {\n", m)
	fmt.Fprintf(b, "\t\tsr%dn2(t[:], %d*i, 1, %d, src, soff+i*ss, %d*ss, ss)\n", k, k, k, m)
	b.WriteString("\t}\n")
	emitComposedStage2(b, m, k, table)
	b.WriteString("}\n\n")
	fmt.Fprintf(b, "// sr%dw is sr%dn with a strided input scale fused into stage 1.\n", n, n)
	fmt.Fprintf(b, "func sr%dw(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int) {\n", n)
	fmt.Fprintf(b, "\tvar t [%d]complex128\n", n)
	fmt.Fprintf(b, "\tfor i := 0; i < %d; i += 2 {\n", m)
	fmt.Fprintf(b, "\t\tsr%dw2(t[:], %d*i, 1, %d, src, soff+i*ss, %d*ss, ss, w, woff+i*ws, w, woff+(i+1)*ws, %d*ws)\n", k, k, k, m, m)
	b.WriteString("\t}\n")
	emitComposedStage2(b, m, k, table)
	b.WriteString("}\n\n")
	emitWrapper(b, n)
}

func emitComposedStage2(b *strings.Builder, m, k int, table string) {
	fmt.Fprintf(b, "\tfor j := 0; j < %d; j += 2 {\n", k)
	fmt.Fprintf(b, "\t\tsr%dw2(dst, doff+j*ds, %d*ds, ds, t[:], j, %d, 1, %s, %d*j, %s, %d*j+%d, 1)\n", m, k, k, table, m, table, m, m)
	b.WriteString("\t}\n")
}

// GeneratedFile is one file of the generated codelet tier.
type GeneratedFile struct {
	Name string // base name within internal/codelet
	Data []byte
}

const generatedHeader = "// Code generated by \"go run spiralfft/cmd/codeletgen\"; DO NOT EDIT.\n\n"

// SplitRadixFiles renders the generated tier of the internal/codelet
// package, Go files gofmt-formatted, and returns the amd64 backend's counts
// for each straight-line kernel:
//
//   - zsplitradix.go: the registry entries, the codelet.Func wrappers and
//     the composed kernels, for every build;
//   - zsplitradix_generic.go: the straight-line kernels in Go, the build
//     for other architectures and for the purego tag;
//   - zsplitradix_amd64.go and zsplitradix_amd64.s: the same kernels in
//     SSE2 assembly behind bounds-checking Go wrappers.
func SplitRadixFiles() ([]GeneratedFile, []AsmStats, error) {
	var b strings.Builder
	b.WriteString(generatedHeader)
	b.WriteString(`// Generated split-radix codelet tier (see internal/codegen/splitradix.go):
// straight-line conjugate-pair split-radix kernels for n ∈ {8, 16, 32, 64}
// and two-stage radix-16 kernels for n ∈ {128, 256}, each with a no-twiddle
// flavor (srNn) and a fused strided-twiddle flavor (srNw). They are the only
// kernels registered for these sizes, so they serve them everywhere codelets
// are used. Each straight-line size also has two-lane entry points
// (Apply2, ApplyW2: DFT_n ⊗ I_2 over two adjacent calls), and the composed
// kernels run their stages in such pairs. The straight-line kernels are
// SSE2 assembly on amd64 and their two-lane forms AVX assembly
// (zsplitradix_amd64.s), and Go elsewhere and under the purego build tag
// (zsplitradix_generic.go); every build computes the same bits.

package codelet

import "spiralfft/internal/twiddle"

`)
	b.WriteString("// Stage-2 twiddle diagonals D_{m,k} of the composed kernels, column j at\n// [j·m, (j+1)·m), shared with the executor's cache layout.\nvar (\n")
	for _, c := range SplitRadixComposed {
		fmt.Fprintf(&b, "\tsrtw%dx%d = twiddle.Columns(%d, %d)\n", c[1], c[2], c[1], c[2])
	}
	b.WriteString(")\n\n")
	b.WriteString("func init() {\n")
	for _, n := range SplitRadixStraight {
		fmt.Fprintf(&b, "\tRegister(Kernel{N: %d, Name: \"sr%d\", Apply: sr%d, ApplyW: sr%dw, Apply2: sr%dPair, ApplyW2: sr%dwPair})\n", n, n, n, n, n, n)
	}
	for _, c := range SplitRadixComposed {
		fmt.Fprintf(&b, "\tRegister(Kernel{N: %d, Name: \"sr%d\", Apply: sr%d, ApplyW: sr%dw})\n", c[0], c[0], c[0], c[0])
	}
	b.WriteString("}\n\n")
	for _, n := range SplitRadixStraight {
		emitWrapper(&b, n)
		emitPairWrappers(&b, n)
	}
	for _, c := range SplitRadixComposed {
		emitComposed(&b, c[0], c[1], c[2])
	}

	var gen strings.Builder
	gen.WriteString(generatedHeader)
	gen.WriteString(`//go:build !amd64 || purego

// The straight-line split-radix kernels in Go: the build for architectures
// other than amd64 and for the purego tag. zsplitradix_amd64.s holds the
// same kernels, lowered from the same scheduled SSA, in SSE2 assembly. A
// two-lane kernel is two single-lane calls here.

package codelet

`)
	for _, n := range SplitRadixStraight {
		emitStraight(&gen, n)
	}

	var wrap strings.Builder
	wrap.WriteString(generatedHeader)
	wrap.WriteString(`//go:build !purego

// The amd64 entry points of the straight-line split-radix kernels, whose
// bodies are SSE2 assembly, and of their two-lane forms, whose bodies are
// AVX assembly (zsplitradix_amd64.s) when the CPU has AVX and two SSE2
// calls when it has not. Each wrapper checks the first and the last index
// of every run of dst, src and w, both lanes' at two lanes, before the
// assembly runs: every index of a strided run lies between the two, so a
// bad call panics with a runtime bounds error and writes nothing.

package codelet

import "math"

// srLast returns off + (n-1)·s, the index of the last element of a strided
// run of n, or -1, which no slice accepts, when (n-1)·|s| exceeds
// math.MaxInt/2 and the sum could overflow.
func srLast(off, s, n int) int {
	if lim := math.MaxInt / 2 / (n - 1); s > lim || s < -lim {
		return -1
	}
	return off + (n-1)*s
}

// srRun panics with a runtime bounds error unless the run of n from off at
// stride s lies within x.
func srRun(x []complex128, off, s, n int) {
	_, _ = x[off], x[srLast(off, s, n)]
}

// srLanes checks the runs of two lanes, from off and off+l, as srRun does,
// and returns lane 1's offset.
func srLanes(x []complex128, off, s, l, n int) int {
	srRun(x, off, s, n)
	srRun(x, off+l, s, n)
	return off + l
}

`)
	for _, n := range SplitRadixStraight {
		emitAsmWrappers(&wrap, n)
	}

	consts := newAsmConsts()
	var text strings.Builder
	var stats []AsmStats
	for _, n := range SplitRadixStraight {
		for _, lanes := range []int{1, 2} {
			for _, tw := range []bool{false, true} {
				body, st := asmKernel(n, tw, lanes, consts)
				fmt.Fprintf(&text, "\n// %s\n%s", st, body)
				stats = append(stats, st)
			}
		}
	}
	var asm strings.Builder
	asm.WriteString(generatedHeader)
	asm.WriteString(`//go:build !purego

// Split-radix kernels lowered by internal/codegen/splitradix_asm.go from
// the scheduled SSA that zsplitradix_generic.go prints as Go, at two
// widths: srNnSSE2 and srNwSSE2 hold one complex128 per XMM register and
// use SSE2 alone; srNn2AVX and srNw2AVX run DFT_n ⊗ I_2, two adjacent calls
// with lane 0 in the low and lane 1 in the high half of each YMM register,
// and use AVX1 without FMA. Arguments are pointers to the first element of
// dst, src and w (and of lane 1's) and the element strides;
// zsplitradix_amd64.go checks the bounds. Every output, in either lane, is
// bit-identical to the Go kernel's.

#include "textflag.h"

// srconst<>: sign masks, then (c, c) and (-d, d) per constant multiplier
// c+id, each entry 32 bytes: its 16-byte pair twice.
`)
	consts.write(&asm)
	asm.WriteString(text.String())

	files := []GeneratedFile{
		{Name: "zsplitradix.go", Data: []byte(b.String())},
		{Name: "zsplitradix_generic.go", Data: []byte(gen.String())},
		{Name: "zsplitradix_amd64.go", Data: []byte(wrap.String())},
	}
	for i := range files {
		src, err := format.Source(files[i].Data)
		if err != nil {
			return nil, nil, fmt.Errorf("codegen: %s: %w", files[i].Name, err)
		}
		files[i].Data = src
	}
	files = append(files, GeneratedFile{Name: "zsplitradix_amd64.s", Data: []byte(asm.String())})
	return files, stats, nil
}

// CodeletFiles renders every generated file of internal/codelet, the
// split-radix tier's and the WHT pass kernels', with the amd64 backend's
// counts for each of their kernels.
func CodeletFiles() ([]GeneratedFile, []AsmStats, error) {
	files, stats, err := SplitRadixFiles()
	if err != nil {
		return nil, nil, err
	}
	wfiles, wstats, err := WHTFiles()
	if err != nil {
		return nil, nil, err
	}
	return append(files, wfiles...), append(stats, wstats...), nil
}

// SplitRadixStandalone renders a self-contained package main that runs the
// straight-line kernel for n (twiddled selects the fused flavor) against the
// O(n²) definition and exits non-zero on mismatch — the CI smoke body.
func SplitRadixStandalone(n int, twiddled bool) ([]byte, error) {
	straight := false
	for _, s := range SplitRadixStraight {
		if s == n {
			straight = true
		}
	}
	if !straight {
		return nil, fmt.Errorf("codegen: standalone split-radix supports n ∈ %v, got %d", SplitRadixStraight, n)
	}
	var b strings.Builder
	flavor := "plain"
	kernel := fmt.Sprintf("sr%dn", n)
	if twiddled {
		flavor = "twiddled"
		kernel = fmt.Sprintf("sr%dw", n)
	}
	fmt.Fprintf(&b, `// Code generated by "go run spiralfft/cmd/codeletgen -standalone"; DO NOT EDIT.

// Self-test for the %s flavor of the generated %d-point split-radix codelet:
// compares the straight-line kernel against the O(n²) DFT definition.

package main

import (
	"fmt"
	"math"
	"os"
)

`, flavor, n)
	if twiddled {
		fmt.Fprintf(&b, "func %s(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int) {\n", kernel)
		b.WriteString(srBody(n, true))
	} else {
		fmt.Fprintf(&b, "func %s(dst []complex128, doff, ds int, src []complex128, soff, ss int) {\n", kernel)
		b.WriteString(srBody(n, false))
	}
	b.WriteString("}\n\n")
	fmt.Fprintf(&b, `func main() {
	const n = %d
	x := make([]complex128, n)
	w := make([]complex128, n)
	for j := range x {
		x[j] = complex(math.Cos(float64(3*j+1)), math.Sin(float64(7*j+2)))
		w[j] = complex(math.Cos(float64(5*j+3)), math.Sin(float64(2*j+1)))
	}
`, n)
	if twiddled {
		fmt.Fprintf(&b, "\tgot := make([]complex128, n)\n\t%s(got, 0, 1, x, 0, 1, w, 0, 1)\n", kernel)
	} else {
		b.WriteString("\tfor j := range w {\n\t\tw[j] = 1\n\t}\n")
		fmt.Fprintf(&b, "\tgot := make([]complex128, n)\n\t%s(got, 0, 1, x, 0, 1)\n", kernel)
	}
	fmt.Fprintf(&b, `	var worst float64
	for k := 0; k < n; k++ {
		var want complex128
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64(k*j%%n) / float64(n)
			s, c := math.Sincos(ang)
			want += complex(c, s) * x[j] * w[j]
		}
		d := got[k] - want
		if e := math.Hypot(real(d), imag(d)); e > worst {
			worst = e
		}
	}
	if worst > 1e-10 {
		fmt.Printf("FAIL %s n=%%d maxerr=%%g\n", n, worst)
		os.Exit(1)
	}
	fmt.Printf("ok %s n=%%d maxerr=%%g\n", n, worst)
}
`, kernel, kernel)
	return format.Source([]byte(b.String()))
}
