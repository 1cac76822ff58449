package codegen

// Split-radix codelet generator (ROADMAP item 1): emits the straight-line
// conjugate-pair split-radix kernels and the composed radix-16 kernels that
// form internal/codelet's generated tier (zsplitradix.go). Each size comes in
// two flavors:
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

// srop is one recorded arithmetic assignment: name := expr, reading args.
type srop struct {
	name, expr string
	args       []string
}

// srgen records a straight-line body: the input loads by name and one
// SSA-style assignment per arithmetic operation, in recursion order.
type srgen struct {
	loads map[string]string // value name -> load expression
	ops   []srop
	v     int
}

func (g *srgen) name() string {
	name := fmt.Sprintf("v%d", g.v)
	g.v++
	return name
}

// load records an input load; schedule emits it at its first use.
func (g *srgen) load(expr string) string {
	name := g.name()
	g.loads[name] = expr
	return name
}

func (g *srgen) assign(expr string, args ...string) string {
	name := g.name()
	g.ops = append(g.ops, srop{name, expr, args})
	return name
}

func (g *srgen) add(a, b string) string { return g.assign(a+" + "+b, a, b) }
func (g *srgen) sub(a, b string) string { return g.assign(a+" - "+b, a, b) }

// mulNegI emits a·(-i): (x+iy)(-i) = y - ix.
func (g *srgen) mulNegI(a string) string {
	return g.assign(fmt.Sprintf("complex(imag(%s), -real(%s))", a, a), a)
}

// mulPosI emits a·(+i): (x+iy)(i) = -y + ix.
func (g *srgen) mulPosI(a string) string {
	return g.assign(fmt.Sprintf("complex(-imag(%s), real(%s))", a, a), a)
}

// mulOmega emits a·ω_n^e with the trivial twiddles (±1, ±i) folded away.
func (g *srgen) mulOmega(n, e int, a string) string {
	e = ((e % n) + n) % n
	switch {
	case e == 0:
		return a
	case 2*e == n:
		return g.assign("-"+a, a)
	case 4*e == n:
		return g.mulNegI(a)
	case 4*e == 3*n:
		return g.mulPosI(a)
	}
	w := twiddle.Omega(n, e)
	return g.assign(fmt.Sprintf("complex(%.17g, %.17g) * %s", real(w), imag(w), a), a)
}

// dft records a DFT of the named values and returns the output value names.
// Base cases are the 2- and 4-point butterflies; everything larger uses the
// conjugate-pair split-radix step
//
//	X_k       = U_k + (ω^k·Z_k + ω^{-k}·Z'_k)
//	X_{k+n/2} = U_k - (ω^k·Z_k + ω^{-k}·Z'_k)
//	X_{k+n/4}  = U_{k+n/4} - i·(ω^k·Z_k - ω^{-k}·Z'_k)
//	X_{k+3n/4} = U_{k+n/4} + i·(ω^k·Z_k - ω^{-k}·Z'_k)
//
// with U = DFT_{n/2}(evens), Z = DFT_{n/4}(x_{4m+1}), Z' = DFT_{n/4}(x_{4m-1}).
func (g *srgen) dft(x []string) []string {
	n := len(x)
	switch n {
	case 1:
		return x
	case 2:
		return []string{g.add(x[0], x[1]), g.sub(x[0], x[1])}
	case 4:
		t0 := g.add(x[0], x[2])
		t1 := g.sub(x[0], x[2])
		t2 := g.add(x[1], x[3])
		t3 := g.mulNegI(g.sub(x[1], x[3]))
		return []string{g.add(t0, t2), g.add(t1, t3), g.sub(t0, t2), g.sub(t1, t3)}
	}
	if n%4 != 0 {
		panic(fmt.Sprintf("codegen: split radix needs 4 | n, got %d", n))
	}
	ev := make([]string, n/2)
	for i := range ev {
		ev[i] = x[2*i]
	}
	z := make([]string, n/4)
	zp := make([]string, n/4)
	for i := range z {
		z[i] = x[4*i+1]
		zp[i] = x[((4*i-1)%n+n)%n]
	}
	u := g.dft(ev)
	zz := g.dft(z)
	zzp := g.dft(zp)
	out := make([]string, n)
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

// schedule renders the recorded body for registers: each load just before
// the first assignment that reads it, and the store of each output right
// after the assignment that computes it (out[k] goes to dst[doff+k·ds]).
// Each load is emitted once and dropped from g.loads.
func (g *srgen) schedule(out []string) string {
	stores := make(map[string][]int, len(out))
	for k, v := range out {
		stores[v] = append(stores[v], k)
	}
	var b strings.Builder
	emit := func(name, expr string) {
		fmt.Fprintf(&b, "\t%s := %s\n", name, expr)
		for _, k := range stores[name] {
			fmt.Fprintf(&b, "\tdst[%s] = %s\n", strideIndex("doff", "ds", k), name)
		}
	}
	for _, op := range g.ops {
		for _, a := range op.args {
			if expr, ok := g.loads[a]; ok {
				emit(a, expr)
				delete(g.loads, a)
			}
		}
		emit(op.name, op.expr)
	}
	return b.String()
}

// srBody emits the scheduled body of one straight-line kernel: loads
// (scaled by the strided w when twiddled), the DFT network, and the stores.
func srBody(n int, twiddled bool) string {
	g := &srgen{loads: make(map[string]string, n)}
	x := make([]string, n)
	for j := 0; j < n; j++ {
		load := fmt.Sprintf("src[%s]", strideIndex("soff", "ss", j))
		if twiddled {
			load += fmt.Sprintf(" * w[%s]", strideIndex("woff", "ws", j))
		}
		x[j] = g.load(load)
	}
	return g.schedule(g.dft(x))
}

// emitStraight writes the three functions for one straight-line size: the
// plain kernel, the fused-twiddle kernel, and the codelet.Func wrapper.
func emitStraight(b *strings.Builder, n int) {
	fmt.Fprintf(b, "// sr%dn computes a no-twiddle %d-point conjugate-pair split-radix DFT.\n", n, n)
	fmt.Fprintf(b, "func sr%dn(dst []complex128, doff, ds int, src []complex128, soff, ss int) {\n", n)
	b.WriteString(srBody(n, false))
	b.WriteString("}\n\n")
	fmt.Fprintf(b, "// sr%dw is sr%dn with a strided per-input scale vector fused into the loads.\n", n, n)
	fmt.Fprintf(b, "func sr%dw(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int) {\n", n)
	b.WriteString(srBody(n, true))
	b.WriteString("}\n\n")
	emitWrapper(b, n)
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
// table — no separate twiddle pass in either flavor.
func emitComposed(b *strings.Builder, n, m, k int) {
	table := fmt.Sprintf("srtw%dx%d", m, k)
	fmt.Fprintf(b, "// sr%dn computes DFT_%d = (DFT_%d ⊗ I_%d) · D_{%d,%d} · (I_%d ⊗ DFT_%d) · L^%d_%d\n", n, n, m, k, m, k, m, k, n, m)
	fmt.Fprintf(b, "// over the straight-line kernels, with the diagonal fused into stage 2.\n")
	fmt.Fprintf(b, "func sr%dn(dst []complex128, doff, ds int, src []complex128, soff, ss int) {\n", n)
	fmt.Fprintf(b, "\tvar t [%d]complex128\n", n)
	fmt.Fprintf(b, "\tfor i := 0; i < %d; i++ {\n", m)
	fmt.Fprintf(b, "\t\tsr%dn(t[:], %d*i, 1, src, soff+i*ss, %d*ss)\n", k, k, m)
	b.WriteString("\t}\n")
	emitComposedStage2(b, m, k, table)
	b.WriteString("}\n\n")
	fmt.Fprintf(b, "// sr%dw is sr%dn with a strided input scale fused into stage 1.\n", n, n)
	fmt.Fprintf(b, "func sr%dw(dst []complex128, doff, ds int, src []complex128, soff, ss int, w []complex128, woff, ws int) {\n", n)
	fmt.Fprintf(b, "\tvar t [%d]complex128\n", n)
	fmt.Fprintf(b, "\tfor i := 0; i < %d; i++ {\n", m)
	fmt.Fprintf(b, "\t\tsr%dw(t[:], %d*i, 1, src, soff+i*ss, %d*ss, w, woff+i*ws, %d*ws)\n", k, k, m, m)
	b.WriteString("\t}\n")
	emitComposedStage2(b, m, k, table)
	b.WriteString("}\n\n")
	emitWrapper(b, n)
}

func emitComposedStage2(b *strings.Builder, m, k int, table string) {
	fmt.Fprintf(b, "\tfor j := 0; j < %d; j++ {\n", k)
	fmt.Fprintf(b, "\t\tsr%dw(dst, doff+j*ds, %d*ds, t[:], j, %d, %s, %d*j, 1)\n", m, k, k, table, m)
	b.WriteString("\t}\n")
}

// SplitRadixFile renders the complete generated source file for the
// internal/codelet package, gofmt-formatted.
func SplitRadixFile() ([]byte, error) {
	var b strings.Builder
	b.WriteString(`// Code generated by "go run spiralfft/cmd/codeletgen"; DO NOT EDIT.

// Generated split-radix codelet tier (see internal/codegen/splitradix.go):
// straight-line conjugate-pair split-radix kernels for n ∈ {8, 16, 32, 64}
// and two-stage radix-16 kernels for n ∈ {128, 256}, each with a no-twiddle
// flavor (srNn) and a fused strided-twiddle flavor (srNw). They are the only
// kernels registered for these sizes, so they serve them everywhere codelets
// are used.

package codelet

import "spiralfft/internal/twiddle"

`)
	b.WriteString("// Stage-2 twiddle diagonals D_{m,k} of the composed kernels, column j at\n// [j·m, (j+1)·m), shared with the executor's cache layout.\nvar (\n")
	for _, c := range SplitRadixComposed {
		fmt.Fprintf(&b, "\tsrtw%dx%d = twiddle.Columns(%d, %d)\n", c[1], c[2], c[1], c[2])
	}
	b.WriteString(")\n\n")
	b.WriteString("func init() {\n")
	for _, n := range SplitRadixSizes() {
		fmt.Fprintf(&b, "\tRegister(Kernel{N: %d, Name: \"sr%d\", Apply: sr%d, ApplyW: sr%dw})\n", n, n, n, n)
	}
	b.WriteString("}\n\n")
	for _, n := range SplitRadixStraight {
		emitStraight(&b, n)
	}
	for _, c := range SplitRadixComposed {
		emitComposed(&b, c[0], c[1], c[2])
	}
	return format.Source([]byte(b.String()))
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
