package codegen

// WHT pass generator: emits the Walsh-Hadamard pass kernels of
// internal/codelet (zwht*.go, zwht_amd64.s). One kernel call runs a whole
// pass I_b ⊗ WHT_r ⊗ I_w for r ∈ {2, 4, 8}: b blocks bs apart, each of r
// legs leg apart, each leg w adjacent points. The r points at one offset of
// a block's legs are one WHT_r input.
//
// The body of a pass is recorded with the split-radix generator's srgen
// and scheduled by its schedule, so it is the same typed op list (srop)
// and goes through the same two backends. Its log2 r radix-2 stages run
// in ascending stride order, the order of the radix-2 loop, so every
// output carries the same additions in the same order. The scaled flavor
// (whtRs) multiplies each output of the final stage by s as two real
// multiplies, exactly as the executor's scale did. Every load precedes the
// first store, so a kernel is safe in place.
//
// printGo renders the body inside Go block and point loops
// (zwht_generic.go, for other architectures and the purego tag). The amd64
// backend lowers it to SSE2 (zwht_amd64.s: whtRSSE2, one point per XMM
// register) and to AVX (whtRAVX): two adjacent points per YMM register,
// one 32-byte VMOVUPD per load and store, and one more SSE2-width point in
// VEX form when w is odd. At w = 1, where a leg has no adjacent point, the
// AVX kernel runs two blocks per YMM register instead, each lane moved on
// its own as in the split-radix two-lane kernels. The block and point
// loops run inside the assembly. zwht.go checks a pass's first and last
// index once (WHTPass) and zwht_amd64.go takes the AVX kernel when the CPU
// has AVX.

import (
	"fmt"
	"go/format"
	"strings"
)

// WHTRadices lists the pass radices the generator emits, ascending.
var WHTRadices = []int{2, 4, 8}

// scaleReg is the vector register a scaled WHT kernel holds (s, s) in.
const scaleReg = 15

// whtProgram records and schedules one point group of a radix-r pass: the
// r leg loads, the radix-2 stages by ascending stride, the scale when
// scaled, and the r stores.
func whtProgram(r int, scaled bool) []srop {
	g := &srgen{loads: make(map[int]srop, r)}
	x := make([]int, r)
	for j := range x {
		x[j] = g.load(j, false)
	}
	for h := 1; h < r; h *= 2 {
		for i := 0; i < r; i += 2 * h {
			for j := i; j < i+h; j++ {
				a, b := x[j], x[j+h]
				x[j], x[j+h] = g.add(a, b), g.sub(a, b)
			}
		}
	}
	if scaled {
		for j := range x {
			x[j] = g.assign(srop{kind: opScale, a: x[j]})
		}
	}
	return g.schedule(x)
}

// whtName is the Go name of a pass kernel: whtR, or whtRs when scaled.
func whtName(r int, scaled bool) string {
	if scaled {
		return fmt.Sprintf("wht%ds", r)
	}
	return fmt.Sprintf("wht%d", r)
}

// whtParams is the Go parameter list of a pass kernel over slices.
func whtParams(scaled bool) string {
	if scaled {
		return "dst, src []complex128, b, bs, leg, w int, s float64"
	}
	return "dst, src []complex128, b, bs, leg, w int"
}

// whtRuns renders leg k of the point at index j as j+k·leg, in dst and src.
var whtRuns = goRuns{doff: "j", ds: "leg", soff: "j", ss: "leg"}

// emitWHTGo writes the Go pass kernel: block and point loops around the
// scheduled body.
func emitWHTGo(b *strings.Builder, r int, scaled bool) {
	name := whtName(r, scaled)
	fmt.Fprintf(b, "// %s computes I_b ⊗ WHT_%d ⊗ I_w from src into dst", name, r)
	if scaled {
		b.WriteString(", each output times s")
	}
	b.WriteString(".\n")
	fmt.Fprintf(b, "func %s(%s) {\n", name, whtParams(scaled))
	b.WriteString("\tfor i := 0; i < b; i++ {\n\t\tfor j := i * bs; j < i*bs+w; j++ {\n")
	for _, line := range strings.Split(strings.TrimSuffix(printGo(whtProgram(r, scaled), whtRuns), "\n"), "\n") {
		b.WriteString("\t\t" + line + "\n")
	}
	b.WriteString("\t\t}\n\t}\n}\n\n")
}

// emitWHTWrapper writes the amd64 entry point of a pass kernel: the AVX
// kernel when the CPU has AVX, else SSE2.
func emitWHTWrapper(b *strings.Builder, r int, scaled bool) {
	name := whtName(r, scaled)
	args := "&dst[0], &src[0], b, bs, leg, w"
	if scaled {
		args += ", s"
	}
	fmt.Fprintf(b, "func %s(%s) {\n", name, whtParams(scaled))
	fmt.Fprintf(b, "\tif hasAVX {\n\t\t%sAVX(%s)\n\t\treturn\n\t}\n\t%sSSE2(%s)\n}\n\n", name, args, name, args)
	sig := "dst, src *complex128, b, bs, leg, w int"
	if scaled {
		sig += ", s float64"
	}
	for _, isa := range []string{"SSE2", "AVX"} {
		fmt.Fprintf(b, "//go:noescape\nfunc %s%s(%s)\n\n", name, isa, sig)
	}
}

// whtAsmKernel lowers the radix-r pass to the TEXT symbol whtRSSE2 (one
// point per XMM register), or whtRAVX when avx is set (two adjacent points
// per YMM register, then one point in VEX form when w is odd; at w = 1 two
// blocks per YMM register). The registers: DI and SI walk dst and src, R13
// and R10 lane 1's at w = 1, DX holds the leg stride in bytes, BX counts
// blocks, CX points, R12 holds w, R11 the byte step from a block's end to
// the next block, and AX, R8 and R9 the leg stride multiples, built once
// before the loops. X15 (Y15) holds (s, s).
func whtAsmKernel(r int, scaled, avx bool) (string, AsmStats) {
	name := whtName(r, scaled) + "SSE2"
	if avx {
		name = whtName(r, scaled) + "AVX"
	}
	prog := whtProgram(r, scaled)
	g := &asmGen{
		stats: AsmStats{Name: name},
		dst:   [2]string{"DI"},
		src:   [2]string{"SI"},
		ss:    "DX",
		spare: []string{"AX", "R8", "R9"},
	}
	g.scan(prog)
	g.ins("MOVQ dst+0(FP), DI")
	g.ins("MOVQ src+8(FP), SI")
	g.ins("MOVQ b+16(FP), BX")
	g.ins("MOVQ bs+24(FP), R11")
	g.ins("MOVQ leg+32(FP), DX")
	g.ins("MOVQ w+40(FP), R12")
	g.ins("SUBQ R12, R11")
	g.ins("SHLQ $4, R11")
	g.ins("SHLQ $4, DX")
	argSize := 48
	if scaled {
		g.owner[scaleReg] = regFixed
		argSize += 8
		if avx {
			g.ins("VBROADCASTSD s+48(FP), Y%d", scaleReg)
		} else {
			g.ins("MOVSD s+48(FP), X%d", scaleReg)
			g.ins("UNPCKLPD X%d, X%d", scaleReg, scaleReg)
		}
	}
	for _, m := range g.needs {
		g.multiple(m.stride, m.k)
	}
	label := func(l string) { fmt.Fprintf(&g.body, "%s:\n", l) }
	step := func(bytes int) {
		g.ins("ADDQ $%d, SI", bytes)
		g.ins("ADDQ $%d, DI", bytes)
	}
	if avx {
		// w = 1: blocks in pairs, lane 1 one block on, each lane moved
		// on its own (the two-lane form with lane bases R10 and R13); an
		// odd last block runs in the block loop's tail.
		g.ins("CMPQ R12, $1")
		g.ins("JNE block")
		g.ins("MOVQ BX, CX")
		g.ins("SHRQ $1, CX")
		g.ins("JZ block")
		g.lea("16(SI)(R11*1), R10")
		g.lea("16(DI)(R11*1), R13")
		g.lea("32(R11)(R11*1), R12") // two blocks, in bytes
		label("blocks")
		g.lanes, g.vex = 2, true
		g.src[1], g.dst[1] = "R10", "R13"
		g.lowerAll(prog)
		for _, p := range []string{"SI", "DI", "R10", "R13"} {
			g.ins("ADDQ R12, %s", p)
		}
		g.ins("DECQ CX")
		g.ins("JNZ blocks")
		g.ins("ANDQ $1, BX")
		g.ins("MOVQ $1, R12")
		g.ins("JNZ block")
		g.ins("VZEROUPPER")
		g.ins("RET")
	}
	label("block")
	g.ins("MOVQ R12, CX")
	if avx {
		g.ins("SHRQ $1, CX")
		g.ins("JZ tail")
		label("pair")
		g.lanes, g.vex, g.adjacent = 2, true, true
		g.lowerAll(prog)
		step(32)
		g.ins("DECQ CX")
		g.ins("JNZ pair")
		label("tail")
		g.ins("TESTQ $1, R12")
		g.ins("JZ next")
		g.lanes, g.adjacent = 1, false
		g.lowerAll(prog)
		step(16)
		label("next")
	} else {
		label("point")
		g.lanes = 1
		g.lowerAll(prog)
		step(16)
		g.ins("DECQ CX")
		g.ins("JNZ point")
	}
	g.ins("ADDQ R11, SI")
	g.ins("ADDQ R11, DI")
	g.ins("DECQ BX")
	g.ins("JNZ block")
	if avx {
		g.ins("VZEROUPPER")
	}
	g.ins("RET")

	sig := "dst, src *complex128, b, bs, leg, w int"
	if scaled {
		sig += ", s float64"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "// func %s(%s)\n", name, sig)
	fmt.Fprintf(&b, "TEXT ·%s(SB), $%d-%d\n", name, g.stats.Frame, argSize)
	b.WriteString(g.body.String())
	return b.String(), g.stats
}

// WHTFiles renders the WHT pass kernels of the internal/codelet package, Go
// files gofmt-formatted, and returns the amd64 backend's counts for each
// kernel:
//
//   - zwht.go: WHTPass, which checks a pass's bounds and picks its kernel,
//     for every build;
//   - zwht_generic.go: the kernels in Go, for other architectures and for
//     the purego tag;
//   - zwht_amd64.go and zwht_amd64.s: the same kernels in SSE2 and AVX
//     assembly.
func WHTFiles() ([]GeneratedFile, []AsmStats, error) {
	var b strings.Builder
	b.WriteString(generatedHeader)
	b.WriteString(`// Generated Walsh-Hadamard pass kernels (see internal/codegen/wht.go): one
// call runs s·(I_b ⊗ WHT_r ⊗ I_w) for r ∈ {2, 4, 8}, with the radix-2
// stages in ascending stride order, so a ladder of passes gives the radix-2
// loop's bits. They are SSE2 and AVX assembly on amd64 (zwht_amd64.s) and
// Go elsewhere and under the purego build tag (zwht_generic.go); every
// build computes the same bits.

package codelet

import (
	"fmt"
	"math"
)

// WHTPass computes s·(I_b ⊗ WHT_r ⊗ I_w) from src into dst for r ∈ {2, 4,
// 8}. Block i ∈ [0, b) starts at off+i·bs and holds r legs leg apart, each
// of w adjacent points; the r points at one offset of a block's legs are
// one WHT_r input, and its outputs go to the same indices of dst. The
// radix-2 stages run in ascending stride order and s multiplies each output
// in the final stage (s = 1 skips the multiply). dst may be src (in place);
// otherwise the two must not overlap.
//
// WHTPass panics with a runtime bounds error, before it writes anything,
// unless b, w ≥ 1, bs, leg ≥ 0 and the pass's first and last index lie
// within dst and src: every index of the pass lies between the two.
func WHTPass(dst, src []complex128, r, off, b, bs, leg, w int, s float64) {
	if r != 2 && r != 4 && r != 8 {
		panic(fmt.Sprintf("codelet: WHT pass radix %d not in {2, 4, 8}", r))
	}
	last := whtLast(r, off, b, bs, leg, w)
	_, _ = dst[off], dst[last]
	_, _ = src[off], src[last]
	dst, src = dst[off:], src[off:]
	switch {
`)
	for _, r := range WHTRadices {
		fmt.Fprintf(&b, "\tcase r == %d && s == 1:\n\t\t%s(dst, src, b, bs, leg, w)\n", r, whtName(r, false))
		fmt.Fprintf(&b, "\tcase r == %d:\n\t\t%s(dst, src, b, bs, leg, w, s)\n", r, whtName(r, true))
	}
	b.WriteString(`	}
}

// whtLast returns the last index of a pass, off+(b−1)·bs+(r−1)·leg+w−1, or
// -1, which no slice accepts, when b or w is below 1, off, bs or leg is
// negative, or a term exceeds math.MaxInt/4 and the sum could overflow.
func whtLast(r, off, b, bs, leg, w int) int {
	const lim = math.MaxInt / 4
	if b < 1 || w < 1 || off < 0 || bs < 0 || leg < 0 || off > lim || w > lim || bs > lim/b || leg > lim/(r-1) {
		return -1
	}
	return off + (b-1)*bs + (r-1)*leg + w - 1
}
`)

	var gen strings.Builder
	gen.WriteString(generatedHeader)
	gen.WriteString(`//go:build !amd64 || purego

// The WHT pass kernels in Go: the build for architectures other than amd64
// and for the purego tag. zwht_amd64.s holds the same kernels, lowered from
// the same scheduled op list, in SSE2 and AVX assembly.

package codelet

`)
	for _, r := range WHTRadices {
		for _, scaled := range []bool{false, true} {
			emitWHTGo(&gen, r, scaled)
		}
	}

	var wrap strings.Builder
	wrap.WriteString(generatedHeader)
	wrap.WriteString(`//go:build !purego

// The amd64 entry points of the WHT pass kernels: the AVX kernel, two
// points per YMM register, when the CPU has AVX, else the SSE2 kernel, one
// point per XMM register. WHTPass has checked the bounds.

package codelet

`)
	var text strings.Builder
	var stats []AsmStats
	for _, r := range WHTRadices {
		for _, scaled := range []bool{false, true} {
			emitWHTWrapper(&wrap, r, scaled)
			for _, avx := range []bool{false, true} {
				body, st := whtAsmKernel(r, scaled, avx)
				fmt.Fprintf(&text, "\n// %s\n%s", st, body)
				stats = append(stats, st)
			}
		}
	}
	var asm strings.Builder
	asm.WriteString(generatedHeader)
	asm.WriteString(`//go:build !purego

// WHT pass kernels lowered by internal/codegen/wht.go from the scheduled op
// list that zwht_generic.go prints as Go: whtRSSE2 and whtRsSSE2 hold one
// complex128 per XMM register and use SSE2 alone; whtRAVX and whtRsAVX hold
// two adjacent points of a leg per YMM register (two blocks' points at
// w = 1) and use AVX1 without FMA, with one point in VEX form when w is
// odd. Arguments are pointers to the
// first element of dst and src, then b, bs, leg, w (and s) as in WHTPass;
// zwht.go checks the bounds. Every output is bit-identical to the Go
// kernel's.
`)
	asm.WriteString(text.String())

	files := []GeneratedFile{
		{Name: "zwht.go", Data: []byte(b.String())},
		{Name: "zwht_generic.go", Data: []byte(gen.String())},
		{Name: "zwht_amd64.go", Data: []byte(wrap.String())},
	}
	for i := range files {
		src, err := format.Source(files[i].Data)
		if err != nil {
			return nil, nil, fmt.Errorf("codegen: %s: %w", files[i].Name, err)
		}
		files[i].Data = src
	}
	files = append(files, GeneratedFile{Name: "zwht_amd64.s", Data: []byte(asm.String())})
	return files, stats, nil
}
