// Package codegen is the program-generation backend: it emits a standalone,
// dependency-free Go source file implementing one public plan family — the
// equivalent of Spiral's C output. The caller hands it the stage-plan IR
// program (internal/ir) that the family's plan built and runs, and one
// walker emits that ir.Program (irgen.go); codegen itself neither lowers nor
// tunes. The emitted file contains
//
//   - one unrolled straight-line kernel per distinct codelet size (with
//     constant-folded twiddle literals) and one loop function per inner node
//     of each codelet tree, with the stride permutation folded into gather
//     strides and the twiddle diagonal folded into the kernels (the
//     loop-merging structure of the paper's Section 3),
//   - the program's regions in order: inline for p = 1, one goroutine per
//     worker with a WaitGroup join at every barrier for p > 1 — for the DFT
//     the multicore Cooley-Tukey schedule of formula (14),
//   - the family's thin wrapper (real packing, DCT reordering, STFT framing)
//     and its tables as literals,
//   - optionally a main() that self-tests the transform against a naive
//     O(n²) reference and prints "OK".
//
// The generated file compiles with the standard Go toolchain and nothing
// else.
package codegen

import (
	"fmt"
	"strings"

	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/twiddle"
)

// MaxSize bounds generation: twiddle tables are emitted as literals, so very
// large sizes would produce unreasonable source files.
const MaxSize = 1 << 14

// maxKernel caps the straight-line kernels: the generator unrolls leaves by
// the O(n²) definition with constant folding, which is reasonable up to 16
// points; larger leaves are re-split into loop stages before emission.
const maxKernel = 16

// Config controls the emitted file.
type Config struct {
	// PackageName for the emitted file (default "main").
	PackageName string
	// FuncName is the exported transform name (default per family, e.g.
	// "DFT<n>").
	FuncName string
	// EmitMain adds a main() that self-tests against a naive reference.
	EmitMain bool
}

// capLeaves re-splits leaves larger than maxKernel into loop stages so the
// unrolled kernels stay small. Prime leaves beyond the cap stay as-is (the
// O(n²) expansion is then the only definition available).
func capLeaves(t *exec.Tree) *exec.Tree {
	if t.Leaf {
		if t.N <= maxKernel {
			return t
		}
		for m := maxKernel; m >= 2; m-- {
			if t.N%m == 0 && t.N/m >= 2 {
				return exec.SplitTree(capLeaves(exec.LeafTree(m)), capLeaves(exec.LeafTree(t.N/m)))
			}
		}
		return t
	}
	return exec.SplitTree(capLeaves(t.Left), capLeaves(t.Right))
}

// emitter walks one ir.Program and accumulates the emitted file: functions
// in body, literal tables in tables (appended after the functions).
type emitter struct {
	prog     *ir.Program
	body     strings.Builder
	tables   strings.Builder
	kernels  map[int]string           // leaf size → emitted kernel function name
	roots    map[*exec.Tree]codeletFn // lowered codelet tree → emitted function
	vecs     map[string]string        // complex vector identity → table name
	perms    map[string]string        // permutation table identity → table name
	nodeID   int
	whtRows  bool // whtRows helper emitted
	untangle bool // untangle helper emitted
}

// codeletFn is the emitted function for one codelet tree. Only a leaf within
// maxKernel has a twiddled (_tw) variant; composite trees are pre-scaled.
type codeletFn struct {
	name string
	leaf bool
}

func newEmitter(prog *ir.Program) (*emitter, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if prog.N > MaxSize {
		return nil, fmt.Errorf("codegen: size %d exceeds limit %d", prog.N, MaxSize)
	}
	return &emitter{
		prog:    prog,
		kernels: make(map[int]string),
		roots:   make(map[*exec.Tree]codeletFn),
		vecs:    make(map[string]string),
		perms:   make(map[string]string),
	}, nil
}

func (e *emitter) String() string {
	return e.body.String() + e.tables.String()
}

func (e *emitter) printf(format string, args ...any) {
	fmt.Fprintf(&e.body, format, args...)
}

// literal writes the named slice literal of elems, perLine to a line, after
// an optional comment line.
func (e *emitter) literal(name, typ, comment string, perLine int, elems []string) {
	if comment != "" {
		fmt.Fprintf(&e.tables, "// %s\n", comment)
	}
	fmt.Fprintf(&e.tables, "var %s = []%s{\n", name, typ)
	for i, s := range elems {
		if i%perLine == 0 {
			e.tables.WriteString("\t")
		}
		e.tables.WriteString(s + ", ")
		if i%perLine == perLine-1 {
			e.tables.WriteString("\n")
		}
	}
	if len(elems)%perLine != 0 {
		e.tables.WriteString("\n")
	}
	e.tables.WriteString("}\n\n")
}

// complexTable writes v as the named complex128 literal, four values a line.
func (e *emitter) complexTable(name, comment string, v []complex128) {
	elems := make([]string, len(v))
	for i, w := range v {
		elems[i] = fmt.Sprintf("complex(%.17g, %.17g)", real(w), imag(w))
	}
	e.literal(name, "complex128", comment, 4, elems)
}

// emitNode emits the function for a subtree and returns its name. The
// function signature is
//
//	func name(dst []complex128, doff, ds int, src []complex128, soff, ss int)
//
// and for leaves additionally a twiddled variant with a tw []complex128
// parameter.
func (e *emitter) emitNode(t *exec.Tree) string {
	if t.Leaf {
		return e.emitKernel(t.N)
	}
	left := e.emitNode(t.Left)
	right := e.emitNode(t.Right)
	e.nodeID++
	name := fmt.Sprintf("stage%d_%d", t.N, e.nodeID)
	m, k := t.M(), t.K()
	twName := fmt.Sprintf("tw%dx%d_%d", m, k, e.nodeID)
	e.complexTable(twName, fmt.Sprintf("%s holds the twiddle columns of D_{%d,%d}: column j at [j·%d, (j+1)·%d).", twName, m, k, m, m),
		twiddle.Columns(m, k))
	e.printf("// %s computes DFT_%d via the split %d = %d·%d: stage 1 runs %d\n", name, t.N, t.N, m, k, m)
	e.printf("// DFT_%d kernels on stride-%d gathers (the L^%d_%d permutation folded in),\n", k, m, t.N, m)
	e.printf("// stage 2 runs %d twiddled DFT_%d kernels down the columns.\n", k, m)
	e.printf("func %s(dst []complex128, doff, ds int, src []complex128, soff, ss int) {\n", name)
	e.printf("\tvar t [%d]complex128\n", t.N)
	e.printf("\tfor i := 0; i < %d; i++ {\n", m)
	e.printf("\t\t%s(t[:], i*%d, 1, src, soff+i*ss, %d*ss)\n", right, k, m)
	e.printf("\t}\n")
	if t.Left.Leaf {
		e.printf("\tfor j := 0; j < %d; j++ {\n", k)
		e.printf("\t\t%s_tw(dst, doff+j*ds, %d*ds, t[:], j, %d, %s[j*%d:(j+1)*%d])\n", left, k, k, twName, m, m)
		e.printf("\t}\n")
	} else {
		e.printf("\tvar pre [%d]complex128\n", m)
		e.printf("\tfor j := 0; j < %d; j++ {\n", k)
		e.printf("\t\ttw := %s[j*%d : (j+1)*%d]\n", twName, m, m)
		e.printf("\t\tfor i := 0; i < %d; i++ {\n", m)
		e.printf("\t\t\tpre[i] = t[j+i*%d] * tw[i]\n", k)
		e.printf("\t\t}\n")
		e.printf("\t\t%s(dst, doff+j*ds, %d*ds, pre[:], 0, 1)\n", left, k)
		e.printf("\t}\n")
	}
	e.printf("}\n\n")
	return name
}

// emitKernel emits the unrolled straight-line kernel for a leaf size (once
// per size) and returns its base name; the twiddled variant gets the _tw
// suffix.
func (e *emitter) emitKernel(n int) string {
	if name, ok := e.kernels[n]; ok {
		return name
	}
	name := fmt.Sprintf("kernel%d", n)
	e.kernels[n] = name
	for _, tw := range []bool{false, true} {
		fn := name
		sig := ""
		if tw {
			fn += "_tw"
			sig = ", tw []complex128"
		}
		e.printf("// %s is the fully unrolled %d-point DFT (strided I/O%s).\n", fn, n,
			map[bool]string{false: "", true: ", twiddled inputs"}[tw])
		e.printf("func %s(dst []complex128, doff, ds int, src []complex128, soff, ss int%s) {\n", fn, sig)
		for j := 0; j < n; j++ {
			e.printf("\tx%d := src[soff+%d*ss]", j, j)
			if tw {
				e.printf(" * tw[%d]", j)
			}
			e.printf("\n")
		}
		for k := 0; k < n; k++ {
			e.printf("\tdst[doff+%d*ds] = ", k)
			terms := make([]string, n)
			for j := 0; j < n; j++ {
				terms[j] = scaledTerm(n, k*j, j)
			}
			e.printf("%s\n", strings.Join(terms, " + "))
		}
		e.printf("}\n\n")
	}
	return name
}

// scaledTerm renders ω_n^e · x_j with constant folding for ±1 and ±i.
func scaledTerm(n, e, j int) string {
	e = ((e % n) + n) % n
	x := fmt.Sprintf("x%d", j)
	switch {
	case e == 0:
		return x
	case 2*e == n:
		return fmt.Sprintf("(-%s)", x)
	case 4*e == n:
		return fmt.Sprintf("complex(imag(%s), -real(%s))", x, x) // ·(-i)
	case 4*e == 3*n:
		return fmt.Sprintf("complex(-imag(%s), real(%s))", x, x) // ·(+i)
	default:
		w := twiddle.Omega(n, e)
		return fmt.Sprintf("complex(%.17g, %.17g)*%s", real(w), imag(w), x)
	}
}
