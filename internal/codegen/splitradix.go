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
// Each straight-line size also has a loop entry, srNLoop: the paper's
// DFT_n ⊗ I_ν taken literally, m calls of the same kernel at lane offsets
// (dl, sl, wl) in one call, as FFTW3's codelets take a vector count and
// vector strides. The executor's stage loops, the IR executor's runs of
// adjacent calls and the composed kernels' stages each make one such call.
//
// The scheduled body is a list of typed ops (srop: load, twiddled load,
// store, add, sub, neg, ±i rotation, constant multiply, real scale) with
// two backends. printGo renders it as Go statements: the straight-line
// kernels of zsplitradix_generic.go, built for other architectures and
// under the purego tag (where a loop entry is a loop of single calls), and
// the CI smoke programs. The amd64 backend (splitradix_asm.go) lowers the
// same list at one, two and four lanes per register, SSE2, AVX and
// AVX-512, into one assembly loop per kernel and a one-lane single call
// (zsplitradix_amd64.s), called
// through Go wrappers that check the first and the last lane's runs
// (zsplitradix_amd64.go) and pass the widest form the CPU runs. Its
// arithmetic is Go's, so every build produces the same bits.

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

// loopParams is the parameter list of a loop entry, codelet's LoopFunc.
const loopParams = "dst []complex128, doff, ds, dl int, src []complex128, soff, ss, sl int, w []complex128, woff, ws, wl, m int"

// emitStraight writes the Go plain and fused-twiddle kernels of one
// straight-line size, and its loop entry as a loop of single calls.
func emitStraight(b *strings.Builder, n int) {
	fmt.Fprintf(b, "// sr%dn computes a no-twiddle %d-point conjugate-pair split-radix DFT.\n", n, n)
	fmt.Fprintf(b, "func sr%dn(dst []complex128, doff, ds int, src []complex128, soff, ss int) {\n", n)
	b.WriteString(srBody(n, false))
	b.WriteString("}\n\n")
	fmt.Fprintf(b, "// sr%dw is sr%dn with a strided per-input scale vector fused into the loads.\n", n, n)
	fmt.Fprintf(b, "func sr%dw(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int) {\n", n)
	b.WriteString(srBody(n, true))
	b.WriteString("}\n\n")
	fmt.Fprintf(b, "// sr%dLoop runs m calls of sr%dn, or of sr%dw when w is non-nil, call i at\n// doff+i·dl, soff+i·sl and woff+i·wl.\n", n, n, n)
	fmt.Fprintf(b, "func sr%dLoop(%s) {\n", n, loopParams)
	fmt.Fprintf(b, "\tfor i := 0; i < m; i++ {\n\t\tif w == nil {\n\t\t\tsr%dn(dst, doff+i*dl, ds, src, soff+i*sl, ss)\n", n)
	fmt.Fprintf(b, "\t\t} else {\n\t\t\tsr%dw(dst, doff+i*dl, ds, src, soff+i*sl, ss, w, woff+i*wl, ws)\n\t\t}\n\t}\n}\n\n", n)
}

// emitAsmWrappers writes the amd64 entry points of one straight-line size:
// each checks the first and the last index of every run it is handed, the
// first and the last lane's in a loop, then calls the size's single-call
// kernel or its assembly loop with pointers to the first elements.
func emitAsmWrappers(b *strings.Builder, n int) {
	fmt.Fprintf(b, "// sr%dn computes a no-twiddle %d-point conjugate-pair split-radix DFT.\n", n, n)
	fmt.Fprintf(b, "func sr%dn(dst []complex128, doff, ds int, src []complex128, soff, ss int) {\n", n)
	fmt.Fprintf(b, "\tsrRun(dst, doff, ds, %d)\n\tsrRun(src, soff, ss, %d)\n", n, n)
	fmt.Fprintf(b, "\tsr%dnSSE2(&dst[doff], ds, &src[soff], ss)\n}\n\n", n)
	fmt.Fprintf(b, "// sr%dw is sr%dn with a strided per-input scale vector fused into the loads.\n", n, n)
	fmt.Fprintf(b, "func sr%dw(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int) {\n", n)
	fmt.Fprintf(b, "\tsrRun(dst, doff, ds, %d)\n\tsrRun(src, soff, ss, %d)\n\tsrRun(w, woff, ws, %d)\n", n, n, n)
	fmt.Fprintf(b, "\tsr%dwSSE2(&dst[doff], ds, &src[soff], ss, &w[woff], ws)\n}\n\n", n)
	fmt.Fprintf(b, "// sr%dLoop runs m calls of sr%dn, or of sr%dw when w is non-nil, call i at\n// doff+i·dl, soff+i·sl and woff+i·wl, in one assembly call.\n", n, n, n)
	fmt.Fprintf(b, "func sr%dLoop(%s) {\n", n, loopParams)
	fmt.Fprintf(b, "\tsrLanes(dst, doff, ds, dl, m, %d)\n\tsrLanes(src, soff, ss, sl, m, %d)\n", n, n)
	fmt.Fprintf(b, "\tif w == nil {\n\t\tst := srStageFor(m, dl, sl, 1)\n")
	fmt.Fprintf(b, "\t\tsr%dnLoop(loopISA, &dst[doff], ds, dl, &src[soff], ss, sl, m, st)\n\t\tsrStageDone(st)\n\t\treturn\n\t}\n", n)
	fmt.Fprintf(b, "\tsrLanes(w, woff, ws, wl, m, %d)\n\tst := srStageFor(m, dl, sl, wl)\n", n)
	fmt.Fprintf(b, "\tsr%dwLoop(loopISA, &dst[doff], ds, dl, &src[soff], ss, sl, &w[woff], ws, wl, m, st)\n\tsrStageDone(st)\n}\n\n", n)
	b.WriteString("//go:noescape\n")
	fmt.Fprintf(b, "func sr%dnSSE2(dst *complex128, ds int, src *complex128, ss int)\n\n", n)
	b.WriteString("//go:noescape\n")
	fmt.Fprintf(b, "func sr%dwSSE2(dst *complex128, ds int, src *complex128, ss int, w *complex128, ws int)\n\n", n)
	b.WriteString("//go:noescape\n")
	fmt.Fprintf(b, "func sr%dnLoop(isa int, dst *complex128, ds, dl int, src *complex128, ss, sl, m int, stage *srStage)\n\n", n)
	b.WriteString("//go:noescape\n")
	fmt.Fprintf(b, "func sr%dwLoop(isa int, dst *complex128, ds, dl int, src *complex128, ss, sl int, w *complex128, ws, wl, m int, stage *srStage)\n\n", n)
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

// emitComposed writes the two-stage kernel n = m·k: stage 1 runs m fused
// DFT_k gathers (input scale folded in when present), stage 2 runs k fused
// DFT_m column transforms with the D_{m,k} diagonal from the package-level
// table — no separate twiddle pass in either flavor. Each stage is one call
// of its kernel's loop entry, which runs the iterations in its widest lanes.
func emitComposed(b *strings.Builder, n, m, k int) {
	table := fmt.Sprintf("srtw%dx%d", m, k)
	fmt.Fprintf(b, "// sr%dn computes DFT_%d = (DFT_%d ⊗ I_%d) · D_{%d,%d} · (I_%d ⊗ DFT_%d) · L^%d_%d\n", n, n, m, k, m, k, m, k, n, m)
	fmt.Fprintf(b, "// over the straight-line kernels, with the diagonal fused into stage 2.\n")
	fmt.Fprintf(b, "func sr%dn(dst []complex128, doff, ds int, src []complex128, soff, ss int) {\n", n)
	fmt.Fprintf(b, "\tvar t [%d]complex128\n", n)
	fmt.Fprintf(b, "\tsr%dLoop(t[:], 0, 1, %d, src, soff, %d*ss, ss, nil, 0, 0, 0, %d)\n", k, k, m, m)
	fmt.Fprintf(b, "\tsr%dLoop(dst, doff, %d*ds, ds, t[:], 0, %d, 1, %s, 0, 1, %d, %d)\n}\n\n", m, k, k, table, m, k)
	fmt.Fprintf(b, "// sr%dw is sr%dn with a strided input scale fused into stage 1.\n", n, n)
	fmt.Fprintf(b, "func sr%dw(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int) {\n", n)
	fmt.Fprintf(b, "\tvar t [%d]complex128\n", n)
	fmt.Fprintf(b, "\tsr%dLoop(t[:], 0, 1, %d, src, soff, %d*ss, ss, w, woff, %d*ws, ws, %d)\n", k, k, m, m, m)
	fmt.Fprintf(b, "\tsr%dLoop(dst, doff, %d*ds, ds, t[:], 0, %d, 1, %s, 0, 1, %d, %d)\n}\n\n", m, k, k, table, m, k)
	emitWrapper(b, n)
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
//   - zsplitradix_amd64.go and zsplitradix_amd64.s: the same kernels as
//     one single call and one assembly loop each (quads, a pair, a single)
//     behind bounds-checking Go wrappers.
func SplitRadixFiles() ([]GeneratedFile, []AsmStats, error) {
	var b strings.Builder
	b.WriteString(generatedHeader)
	b.WriteString(`// Generated split-radix codelet tier (see internal/codegen/splitradix.go):
// straight-line conjugate-pair split-radix kernels for n ∈ {8, 16, 32, 64}
// and two-stage radix-16 kernels for n ∈ {128, 256}, each with a no-twiddle
// flavor (srNn) and a fused strided-twiddle flavor (srNw). They are the only
// kernels registered for these sizes, so they serve them everywhere codelets
// are used. Each straight-line size also has a loop entry (Kernel.Loop:
// DFT_n ⊗ I_m, m calls at lane offsets), and each stage of the composed
// kernels is one such call. On amd64 the loop runs in one assembly call
// (zsplitradix_amd64.s): four lanes per ZMM register with AVX-512, two per
// YMM register with AVX, one per XMM register in SSE2 for the tail and
// without AVX. It is Go elsewhere and under the purego build tag
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
		fmt.Fprintf(&b, "\tRegister(Kernel{N: %d, Name: \"sr%d\", Apply: sr%d, ApplyW: sr%dw, loop: sr%dLoop})\n", n, n, n, n, n)
	}
	for _, c := range SplitRadixComposed {
		fmt.Fprintf(&b, "\tRegister(Kernel{N: %d, Name: \"sr%d\", Apply: sr%d, ApplyW: sr%dw})\n", c[0], c[0], c[0], c[0])
	}
	b.WriteString("}\n\n")
	for _, n := range SplitRadixStraight {
		emitWrapper(&b, n)
	}
	for _, c := range SplitRadixComposed {
		emitComposed(&b, c[0], c[1], c[2])
	}

	var gen strings.Builder
	gen.WriteString(generatedHeader)
	gen.WriteString(`//go:build !amd64 || purego

// The straight-line split-radix kernels in Go: the build for architectures
// other than amd64 and for the purego tag. zsplitradix_amd64.s holds the
// same kernels, lowered from the same scheduled SSA, in assembly. A loop
// entry is a loop of single calls here.

package codelet

`)
	for _, n := range SplitRadixStraight {
		emitStraight(&gen, n)
	}

	var wrap strings.Builder
	wrap.WriteString(generatedHeader)
	wrap.WriteString(`//go:build !purego

// The amd64 entry points of the straight-line split-radix kernels. Each
// size and flavor has a single call in SSE2, srNnSSE2 or srNwSSE2, and one
// assembly loop, srNnLoop or srNwLoop (zsplitradix_amd64.s), which runs m
// calls at lane offsets in the widest form loopISA allows. Each
// wrapper checks the first and the last index of the first and the last
// lane's runs of dst, src and w before the assembly runs: every index of
// every lane lies between them, so a bad call panics with a runtime bounds
// error and writes nothing.

package codelet

import (
	"math"
	"math/bits"
	"sync"
)

// srLim bounds each term of a checked index, so no sum of an offset and
// two terms overflows.
const srLim = math.MaxInt / 4

// srTerm returns k·v and true, or false when |k·v| exceeds srLim; k < 0
// reads as a huge count. One multiply, no division.
func srTerm(k, v int) (int, bool) {
	u := uint64(v)
	if v < 0 {
		u = -u
	}
	hi, lo := bits.Mul64(u, uint64(k))
	if hi != 0 || lo > srLim {
		return 0, false
	}
	if v < 0 {
		return -int(lo), true
	}
	return int(lo), true
}

// srStage is a loop's quad stage: 64 bytes of slack to align it, then 64
// bytes per element of src (and dst) and of w, for the largest kernel.
`)
	fmt.Fprintf(&wrap, "type srStage [64 + 128*%d]byte\n\n", SplitRadixStraight[len(SplitRadixStraight)-1])
	wrap.WriteString(`// srStages keeps the stages off the goroutine's stack: a loop frame that
// held one would make every fresh goroutine, as the spawn backend starts
// in each region, grow its stack before its first loop.
var srStages = sync.Pool{New: func() any { return new(srStage) }}

// srStageFor returns a stage from srStages when a loop of m lanes runs
// quads with a side whose lanes are not adjacent, else nil.
func srStageFor(m, dl, sl, wl int) *srStage {
	if loopISA < isaAVX512 || m < 4 || dl == 1 && sl == 1 && wl == 1 {
		return nil
	}
	return srStages.Get().(*srStage)
}

// srStageDone returns a stage srStageFor handed out.
func srStageDone(st *srStage) {
	if st != nil {
		srStages.Put(st)
	}
}

// srRun panics with a runtime bounds error unless the run of n ≤ 64 from
// off at stride s lies within x: a single call's check, two compares once
// inlined. A stride past srLim/64 checks index -1 instead, so no sum
// overflows; no slice is long enough for such a stride anyway.
func srRun(x []complex128, off, s, n int) {
	last := off + (n-1)*s
	if s > srLim/64 || s < -srLim/64 {
		last = -1
	}
	_, _ = x[off], x[last]
}

// srLanes panics with a runtime bounds error unless every index of m
// lanes' runs lies within x: lane i's n elements sit at off + i·l + j·s.
// Every such index lies between the four corners, lane 0's and lane m−1's
// first and last elements, so those are the ones checked; m < 1, or a term
// past srLim, checks index -1 instead.
func srLanes(x []complex128, off, s, l, m, n int) {
	a, okS := srTerm(n-1, s)
	b, okL := srTerm(m-1, l)
	if !okS || !okL || m < 1 {
		off = -1
	}
	_, _, _, _ = x[off], x[off+a], x[off+b], x[off+a+b]
}

`)
	for _, n := range SplitRadixStraight {
		emitAsmWrappers(&wrap, n)
	}

	consts := newAsmConsts()
	var text strings.Builder
	var stats []AsmStats
	for _, n := range SplitRadixStraight {
		for _, tw := range []bool{false, true} {
			body, st := asmLoopKernel(n, tw, consts)
			text.WriteByte('\n')
			for _, s := range st {
				fmt.Fprintf(&text, "// %s\n", s)
			}
			text.WriteString(body)
			stats = append(stats, st...)
		}
	}
	var asm strings.Builder
	asm.WriteString(generatedHeader)
	asm.WriteString(`//go:build !purego

// Split-radix loops lowered by internal/codegen/splitradix_asm.go from the
// scheduled SSA that zsplitradix_generic.go prints as Go. srNnSSE2 and
// srNwSSE2 run one call in SSE2. srNnLoop and srNwLoop run DFT_n ⊗ I_m, m
// calls at lane offsets, with the kernel body at three widths: four lanes
// per ZMM register (AVX-512F and DQ, 32 registers; a side whose lanes are
// not adjacent goes through the stage, the last argument), two lanes per
// YMM register (AVX1), and one per XMM register (SSE2 alone), none with
// FMA. isa, the first argument, names the widest the loop may run. The
// other arguments are pointers to lane 0's first element of dst, src and
// w, the element strides, the lane offsets in elements, and m;
// zsplitradix_amd64.go checks the bounds. Every output, in every lane, is
// bit-identical to the Go kernel's.

#include "textflag.h"

// srconst<>: sign masks, then (c, c) and (-d, d) per constant multiplier
// c+id, each entry 64 bytes: its 16-byte pair four times.
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
