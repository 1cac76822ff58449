package codegen

// This file emits standalone Go for each of the seven public plan families.
// Every family is lowered to the shared stage-plan IR exactly as the library
// lowers it at plan time and the program is emitted by the IR walker
// (irgen.go); for the real family and the STFT's frames that program
// includes the untangle region (ir.RealForward), and the wrappers only pack
// the samples. The DCT gets the same thin reordering wrapper the library
// wraps around its inner complex plan. With EmitMain the file self-tests
// against a naive O(n²) reference and prints "OK".

import (
	"fmt"
	"math"

	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/rewrite"
	"spiralfft/internal/twiddle"
)

// Families lists the supported -family values in spiralgen order.
var Families = []string{"dft", "real", "batch", "2d", "wht", "dct", "stft"}

// FamilySpec selects one public plan family and its shape.
type FamilySpec struct {
	// Family is one of Families.
	Family string
	// N is the transform size: per-signal length for batch, rows for 2d,
	// frame length for stft.
	N int
	// Cols is the 2d column count (default N).
	Cols int
	// Count is the batch signal count (default 4).
	Count int
	// Hop is the stft hop (default N/2).
	Hop int
	// Workers requests a parallel schedule (families fall back to sequential
	// when their applicability condition fails, exactly like the plans).
	Workers int
	// Mu is the cache-line length µ in complex128 elements (default 4).
	Mu int
	// Tree, dft family only, fixes the factorization of size N. A tree whose
	// root split is pµ-admissible lowers as formula (14) with the root's
	// children as sub-trees; any other tree lowers as one sequential call.
	// Nil lowers as NewPlan's default planner does.
	Tree *exec.Tree
}

// GenerateFamily emits a self-contained Go file implementing one public plan
// family, lowered through the stage-plan IR.
func GenerateFamily(spec FamilySpec, cfg Config) (string, error) {
	if cfg.PackageName == "" {
		cfg.PackageName = "main"
	}
	spec, prog, err := lowerFamily(spec)
	if err != nil {
		return "", err
	}
	switch spec.Family {
	case "dft":
		return familyDFT(spec, cfg, prog)
	case "real":
		return familyReal(spec, cfg, prog)
	case "batch":
		return familyBatch(spec, cfg, prog)
	case "2d":
		return family2D(spec, cfg, prog)
	case "wht":
		return familyWHT(spec, cfg, prog)
	case "dct":
		return familyDCT(spec, cfg, prog)
	default:
		return familySTFT(spec, cfg, prog)
	}
}

// lowerFamily fills in spec's defaults, validates it, and lowers the family
// to the program its plan constructor builds under the default planner: the
// DFT for dft and dct, the real-input program of the half-size DFT for real
// and stft (frames), and the batch, 2d and WHT lowerings.
func lowerFamily(spec FamilySpec) (FamilySpec, *ir.Program, error) {
	if spec.Mu == 0 {
		spec.Mu = 4
	}
	if spec.Workers < 1 {
		spec.Workers = 1
	}
	if spec.Cols == 0 {
		spec.Cols = spec.N
	}
	if spec.Count == 0 {
		spec.Count = 4
	}
	if spec.Hop == 0 {
		spec.Hop = spec.N / 2
	}
	if spec.N < 2 {
		return spec, nil, fmt.Errorf("codegen: family %q needs size ≥ 2, got %d", spec.Family, spec.N)
	}
	if spec.Tree != nil && spec.Family != "dft" {
		return spec, nil, fmt.Errorf("codegen: a factorization tree applies to the dft family only, not %q", spec.Family)
	}
	var prog *ir.Program
	var err error
	switch spec.Family {
	case "dft", "dct":
		prog, err = dftProgram(spec)
	case "real", "stft":
		if spec.N%2 != 0 {
			return spec, nil, fmt.Errorf("codegen: %s family needs an even size, got %d", spec.Family, spec.N)
		}
		if spec.Family == "stft" && (spec.Hop < 1 || spec.Hop > spec.N) {
			return spec, nil, fmt.Errorf("codegen: stft hop %d out of range [1, %d]", spec.Hop, spec.N)
		}
		prog, err = realProgram(spec)
	case "batch":
		prog, err = ir.LowerBatch(exec.RadixTree(spec.N), spec.Count, min(spec.Workers, spec.Count))
	case "2d":
		p := 1
		if spec.Workers > 1 && rewrite.Parallel2DOK(spec.N, spec.Cols, spec.Workers, spec.Mu) {
			p = spec.Workers
		}
		prog, err = ir.Lower2D(spec.N, spec.Cols, p, exec.RadixTree(spec.Cols), exec.RadixTree(spec.N))
	case "wht":
		if spec.N&(spec.N-1) != 0 {
			return spec, nil, fmt.Errorf("codegen: WHT size must be a power of two, got %d", spec.N)
		}
		prog, err = ir.LowerWHT(spec.N, spec.Workers, spec.Mu)
	default:
		return spec, nil, fmt.Errorf("codegen: unknown family %q (want one of %v)", spec.Family, Families)
	}
	return spec, prog, err
}

// dftProgram lowers the complex DFT of spec.N from spec.Tree, by default the
// balanced pµ-admissible split with radix sub-trees when one exists and the
// radix tree otherwise. A tree whose root split is pµ-admissible lowers as
// the two-stage multicore Cooley-Tukey schedule, any other sequentially.
func dftProgram(spec FamilySpec) (*ir.Program, error) {
	n, workers, mu := spec.N, spec.Workers, spec.Mu
	t := spec.Tree
	if t == nil {
		t = exec.RadixTree(n)
		if m, ok := exec.SplitFor(n, workers, mu); ok && workers > 1 {
			t = exec.SplitTree(exec.RadixTree(m), exec.RadixTree(n/m))
		}
	}
	if err := t.Validate(); err != nil {
		return nil, err
	}
	if t.N != n {
		return nil, fmt.Errorf("codegen: tree %s has size %d, want %d", t, t.N, n)
	}
	if q := workers * mu; workers > 1 && !t.Leaf && t.M()%q == 0 && t.K()%q == 0 {
		return ir.LowerCT(n, t.M(), ir.CTConfig{P: workers, Mu: mu, LeftTree: t.Left, RightTree: t.Right})
	}
	return ir.LowerTree(t)
}

// familyFile assembles one emitted file: header + imports, the IR-walked core
// (entry coreName), then wrapper and main paragraphs appended by emit.
func familyFile(prog *ir.Program, cfg Config, comment, coreName string, emit func(e *emitter)) (string, error) {
	e, err := newEmitter(prog)
	if err != nil {
		return "", err
	}
	e.printf("// Code generated by spiralgen (spiralfft); %s. DO NOT EDIT.\n", comment)
	e.printf("//\n// Standalone transform emitted from the stage-plan IR described in\n")
	e.printf("// \"FFT Program Generation for Shared Memory: SMP and Multicore\"\n// (SC 2006), reimplemented in Go.\n")
	e.printf("package %s\n\n", cfg.PackageName)
	var imports []string
	if prog.P > 1 {
		imports = append(imports, "sync")
	}
	if cfg.EmitMain {
		imports = append(imports, "fmt", "math", "math/cmplx", "os")
	}
	switch len(imports) {
	case 0:
	case 1:
		e.printf("import %q\n\n", imports[0])
	default:
		e.printf("import (\n")
		for _, im := range imports {
			e.printf("\t%q\n", im)
		}
		e.printf(")\n\n")
	}
	if err := e.emitAll(coreName); err != nil {
		return "", err
	}
	emit(e)
	return e.String(), nil
}

// ---------------------------------------------------------------------------
// Complex families: dft, batch, 2d, wht

func familyDFT(spec FamilySpec, cfg Config, prog *ir.Program) (string, error) {
	if cfg.FuncName == "" {
		cfg.FuncName = fmt.Sprintf("DFT%d", spec.N)
	}
	comment := fmt.Sprintf("family dft, n=%d, p=%d", spec.N, prog.P)
	return familyFile(prog, cfg, comment, cfg.FuncName, func(e *emitter) {
		if cfg.EmitMain {
			emitNaiveDFT(e)
			emitCheck(e)
			e.printf("func main() {\n")
			emitComplexInput(e, "x", spec.N)
			e.printf("\twant := naiveDFT(x)\n")
			e.printf("\tgot := make([]complex128, %d)\n", spec.N)
			e.printf("\t%s(got, x)\n", cfg.FuncName)
			e.printf("\tcheck(got, want, %g)\n}\n", tol(spec.N))
		}
	})
}

func familyBatch(spec FamilySpec, cfg Config, prog *ir.Program) (string, error) {
	count := spec.Count
	if cfg.FuncName == "" {
		cfg.FuncName = fmt.Sprintf("Batch%dxDFT%d", count, spec.N)
	}
	comment := fmt.Sprintf("family batch, %d signals × DFT_%d, p=%d", count, spec.N, prog.P)
	return familyFile(prog, cfg, comment, cfg.FuncName, func(e *emitter) {
		if cfg.EmitMain {
			emitNaiveDFT(e)
			emitCheck(e)
			n, total := spec.N, spec.N*count
			e.printf("func main() {\n")
			emitComplexInput(e, "x", total)
			e.printf("\twant := make([]complex128, %d)\n", total)
			e.printf("\tfor s := 0; s < %d; s++ {\n", count)
			e.printf("\t\tcopy(want[s*%d:(s+1)*%d], naiveDFT(x[s*%d:(s+1)*%d]))\n\t}\n", n, n, n, n)
			e.printf("\tgot := make([]complex128, %d)\n", total)
			e.printf("\t%s(got, x)\n", cfg.FuncName)
			e.printf("\tcheck(got, want, %g)\n}\n", tol(n))
		}
	})
}

func family2D(spec FamilySpec, cfg Config, prog *ir.Program) (string, error) {
	rows, cols := spec.N, spec.Cols
	if cfg.FuncName == "" {
		cfg.FuncName = fmt.Sprintf("DFT2D%dx%d", rows, cols)
	}
	comment := fmt.Sprintf("family 2d, %d×%d, p=%d", rows, cols, prog.P)
	return familyFile(prog, cfg, comment, cfg.FuncName, func(e *emitter) {
		if cfg.EmitMain {
			emitNaiveDFT(e)
			emitCheck(e)
			total := rows * cols
			e.printf("func main() {\n")
			emitComplexInput(e, "x", total)
			e.printf("\twant := make([]complex128, %d)\n\tcopy(want, x)\n", total)
			e.printf("\tfor r := 0; r < %d; r++ {\n", rows)
			e.printf("\t\tcopy(want[r*%d:(r+1)*%d], naiveDFT(want[r*%d:(r+1)*%d]))\n\t}\n", cols, cols, cols, cols)
			e.printf("\tcol := make([]complex128, %d)\n", rows)
			e.printf("\tfor c := 0; c < %d; c++ {\n", cols)
			e.printf("\t\tfor r := range col {\n\t\t\tcol[r] = want[r*%d+c]\n\t\t}\n", cols)
			e.printf("\t\tfor r, v := range naiveDFT(col) {\n\t\t\twant[r*%d+c] = v\n\t\t}\n\t}\n", cols)
			e.printf("\tgot := make([]complex128, %d)\n", total)
			e.printf("\t%s(got, x)\n", cfg.FuncName)
			e.printf("\tcheck(got, want, %g)\n}\n", tol(total))
		}
	})
}

func familyWHT(spec FamilySpec, cfg Config, prog *ir.Program) (string, error) {
	if cfg.FuncName == "" {
		cfg.FuncName = fmt.Sprintf("WHT%d", spec.N)
	}
	comment := fmt.Sprintf("family wht, n=%d, p=%d", spec.N, prog.P)
	if a, ok := ir.WHTSplit(spec.N, prog.P, prog.Mu); ok {
		comment += fmt.Sprintf(" (WHT_%d ⊗ I_%d)·(I_%d ⊗∥ WHT_%d)", prog.P, spec.N>>a, prog.P, spec.N>>a)
	}
	return familyFile(prog, cfg, comment, cfg.FuncName, func(e *emitter) {
		if cfg.EmitMain {
			emitCheck(e)
			n := spec.N
			e.printf("func main() {\n")
			emitComplexInput(e, "x", n)
			e.printf("\t// Naive WHT: H[k][j] = (-1)^popcount(k AND j) (Hadamard ordering).\n")
			e.printf("\twant := make([]complex128, %d)\n", n)
			e.printf("\tfor k := 0; k < %d; k++ {\n", n)
			e.printf("\t\tfor j := 0; j < %d; j++ {\n", n)
			e.printf("\t\t\ts := 1.0\n")
			e.printf("\t\t\tfor v := k & j; v != 0; v &= v - 1 {\n\t\t\t\ts = -s\n\t\t\t}\n")
			e.printf("\t\t\twant[k] += complex(s, 0) * x[j]\n\t\t}\n\t}\n")
			e.printf("\tgot := make([]complex128, %d)\n", n)
			e.printf("\t%s(got, x)\n", cfg.FuncName)
			e.printf("\tcheck(got, want, %g)\n}\n", tol(n))
		}
	})
}

// ---------------------------------------------------------------------------
// Real-input families: real, dct, stft

func familyReal(spec FamilySpec, cfg Config, prog *ir.Program) (string, error) {
	n := spec.N
	if cfg.FuncName == "" {
		cfg.FuncName = fmt.Sprintf("RFFT%d", n)
	}
	h := n / 2
	comment := fmt.Sprintf("family real, n=%d (inner DFT_%d), p=%d", n, h, prog.P)
	return familyFile(prog, cfg, comment, "rfftCore", func(e *emitter) {
		emitRealWrapper(e, cfg.FuncName, "rfftCore", n)
		if cfg.EmitMain {
			emitNaiveDFT(e)
			emitCheck(e)
			e.printf("func main() {\n")
			emitRealInput(e, "x", n)
			e.printf("\txc := make([]complex128, %d)\n", n)
			e.printf("\tfor i, v := range x {\n\t\txc[i] = complex(v, 0)\n\t}\n")
			e.printf("\twant := naiveDFT(xc)[:%d]\n", h+1)
			e.printf("\tgot := make([]complex128, %d)\n", h+1)
			e.printf("\t%s(got, x)\n", cfg.FuncName)
			e.printf("\tcheck(got, want, %g)\n}\n", tol(n))
		}
	})
}

func familyDCT(spec FamilySpec, cfg Config, prog *ir.Program) (string, error) {
	n := spec.N
	if cfg.FuncName == "" {
		cfg.FuncName = fmt.Sprintf("DCT%d", n)
	}
	comment := fmt.Sprintf("family dct, n=%d, p=%d", n, prog.P)
	return familyFile(prog, cfg, comment, "dftCore", func(e *emitter) {
		dcw := make([]complex128, n) // e^{-iπk/(2n)}
		for k := range dcw {
			dcw[k] = twiddle.Omega(4*n, k)
		}
		e.complexTable("dcw", fmt.Sprintf("dcw holds e^{-2πik/%d} for k = 0..%d.", 4*n, n-1), dcw)
		e.printf("// %s computes the unnormalized DCT-II of src into dst (both length %d)\n", cfg.FuncName, n)
		e.printf("// via Makhoul's reduction to one %d-point complex DFT.\n", n)
		e.printf("func %s(dst, src []float64) {\n", cfg.FuncName)
		e.printf("\tif len(dst) != %d || len(src) != %d {\n\t\tpanic(\"%s: need length %d\")\n\t}\n", n, n, cfg.FuncName, n)
		e.printf("\tv := make([]complex128, %d)\n", n)
		e.printf("\t// Makhoul reordering: evens ascending then odds descending.\n")
		e.printf("\tfor j := 0; 2*j < %d; j++ {\n\t\tv[j] = complex(src[2*j], 0)\n\t}\n", n)
		e.printf("\tfor j := 0; 2*j+1 < %d; j++ {\n\t\tv[%d-1-j] = complex(src[2*j+1], 0)\n\t}\n", n, n)
		e.printf("\tdftCore(v, v)\n")
		e.printf("\tfor k := 0; k < %d; k++ {\n\t\tdst[k] = real(dcw[k] * v[k])\n\t}\n}\n\n", n)
		if cfg.EmitMain {
			emitCheck(e)
			e.printf("func main() {\n")
			emitRealInput(e, "x", n)
			e.printf("\twant := make([]complex128, %d)\n", n)
			e.printf("\tfor k := 0; k < %d; k++ {\n", n)
			e.printf("\t\tsum := 0.0\n")
			e.printf("\t\tfor j := 0; j < %d; j++ {\n", n)
			e.printf("\t\t\tsum += x[j] * math.Cos(math.Pi*float64(k)*float64(2*j+1)/float64(2*%d))\n\t\t}\n", n)
			e.printf("\t\twant[k] = complex(sum, 0)\n\t}\n")
			e.printf("\tgotF := make([]float64, %d)\n", n)
			e.printf("\t%s(gotF, x)\n", cfg.FuncName)
			e.printf("\tgot := make([]complex128, %d)\n", n)
			e.printf("\tfor i, v := range gotF {\n\t\tgot[i] = complex(v, 0)\n\t}\n")
			e.printf("\tcheck(got, want, %g)\n}\n", tol(n))
		}
	})
}

func familySTFT(spec FamilySpec, cfg Config, prog *ir.Program) (string, error) {
	frame, hop := spec.N, spec.Hop
	if cfg.FuncName == "" {
		cfg.FuncName = fmt.Sprintf("STFT%d", frame)
	}
	bins := frame/2 + 1
	comment := fmt.Sprintf("family stft, frame=%d, hop=%d, p=%d", frame, hop, prog.P)
	return familyFile(prog, cfg, comment, "rfftCore", func(e *emitter) {
		emitHannTable(e, "win", frame)
		emitRealWrapper(e, "rfftFrame", "rfftCore", frame)
		e.printf("// %sNumFrames returns how many complete frames fit a signal of the\n", cfg.FuncName)
		e.printf("// given length (frame %d, hop %d).\n", frame, hop)
		e.printf("func %sNumFrames(signalLen int) int {\n", cfg.FuncName)
		e.printf("\tif signalLen < %d {\n\t\treturn 0\n\t}\n", frame)
		e.printf("\treturn (signalLen-%d)/%d + 1\n}\n\n", frame, hop)
		e.printf("// %s computes the Hann-windowed half spectra of all complete frames of\n", cfg.FuncName)
		e.printf("// src: frame f covers src[f·%d : f·%d+%d] and its %d bins land in\n", hop, hop, frame, bins)
		e.printf("// dst[f·%d : (f+1)·%d].\n", bins, bins)
		e.printf("func %s(dst []complex128, src []float64) {\n", cfg.FuncName)
		e.printf("\tframes := %sNumFrames(len(src))\n", cfg.FuncName)
		e.printf("\tif len(dst) != frames*%d {\n\t\tpanic(\"%s: need frames*%d outputs\")\n\t}\n", bins, cfg.FuncName, bins)
		e.printf("\tbuf := make([]float64, %d)\n", frame)
		e.printf("\tfor f := 0; f < frames; f++ {\n")
		e.printf("\t\toff := f * %d\n", hop)
		e.printf("\t\tfor i := 0; i < %d; i++ {\n\t\t\tbuf[i] = src[off+i] * win[i]\n\t\t}\n", frame)
		e.printf("\t\trfftFrame(dst[f*%d:(f+1)*%d], buf)\n\t}\n}\n\n", bins, bins)
		if cfg.EmitMain {
			emitNaiveDFT(e)
			emitCheck(e)
			sig := 3 * frame
			e.printf("func main() {\n")
			emitRealInput(e, "x", sig)
			e.printf("\tframes := %sNumFrames(%d)\n", cfg.FuncName, sig)
			e.printf("\twant := make([]complex128, frames*%d)\n", bins)
			e.printf("\tfc := make([]complex128, %d)\n", frame)
			e.printf("\tfor f := 0; f < frames; f++ {\n")
			e.printf("\t\tfor i := 0; i < %d; i++ {\n\t\t\tfc[i] = complex(x[f*%d+i]*win[i], 0)\n\t\t}\n", frame, hop)
			e.printf("\t\tcopy(want[f*%d:(f+1)*%d], naiveDFT(fc)[:%d])\n\t}\n", bins, bins, bins)
			e.printf("\tgot := make([]complex128, frames*%d)\n", bins)
			e.printf("\t%s(got, x)\n", cfg.FuncName)
			e.printf("\tcheck(got, want, %g)\n}\n", tol(frame))
		}
	})
}

// realProgram lowers the real-input DFT of spec.N the way RealPlan does: the
// complex DFT of spec.N/2 followed by its untangle region.
func realProgram(spec FamilySpec) (*ir.Program, error) {
	half, err := dftProgram(FamilySpec{N: spec.N / 2, Workers: spec.Workers, Mu: spec.Mu})
	if err != nil {
		return nil, err
	}
	return ir.RealForward(half)
}

// emitRealWrapper emits the real-input DFT wrapper around the emitted real
// program core: it packs the n real samples into n/2 complex points, and
// the core transforms and untangles them into the half spectrum.
func emitRealWrapper(e *emitter, fn, core string, n int) {
	h := n / 2
	e.printf("// %s computes the non-redundant half spectrum of the real signal src:\n", fn)
	e.printf("// dst[k] for k = 0..%d. len(src) must be %d and len(dst) %d.\n", h, n, h+1)
	e.printf("func %s(dst []complex128, src []float64) {\n", fn)
	e.printf("\tif len(src) != %d || len(dst) != %d {\n\t\tpanic(\"%s: src %d, dst %d\")\n\t}\n", n, h+1, fn, n, h+1)
	e.printf("\tz := make([]complex128, %d)\n", h)
	e.printf("\tfor j := 0; j < %d; j++ {\n\t\tz[j] = complex(src[2*j], src[2*j+1])\n\t}\n", h)
	e.printf("\t%s(dst, z)\n}\n\n", core)
}

// emitHannTable emits the length-n Hann window as a named literal.
func emitHannTable(e *emitter, name string, n int) {
	elems := make([]string, n)
	for i := range elems {
		elems[i] = fmt.Sprintf("%.17g", 0.5-0.5*math.Cos(2*math.Pi*float64(i)/float64(n)))
	}
	e.literal(name, "float64", fmt.Sprintf("%s is the length-%d Hann window.", name, n), 4, elems)
}

// ---------------------------------------------------------------------------
// Self-test support

func tol(n int) float64 { return 1e-8 * float64(n) }

func emitNaiveDFT(e *emitter) {
	e.printf(`// naiveDFT is the O(n²) reference transform.
func naiveDFT(x []complex128) []complex128 {
	n := len(x)
	y := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			ang := -2 * math.Pi * float64((k*j)%%n) / float64(n)
			y[k] += cmplx.Exp(complex(0, ang)) * x[j]
		}
	}
	return y
}

`)
}

func emitCheck(e *emitter) {
	e.printf(`// check compares got against want and prints OK within tolerance.
func check(got, want []complex128, tol float64) {
	maxErr := 0.0
	for i := range got {
		if e := cmplx.Abs(got[i] - want[i]); e > maxErr {
			maxErr = e
		}
	}
	if maxErr > tol {
		fmt.Printf("FAIL maxErr=%%g\n", maxErr)
		os.Exit(1)
	}
	fmt.Println("OK")
}

`)
}

func emitComplexInput(e *emitter, name string, n int) {
	e.printf("\t%s := make([]complex128, %d)\n", name, n)
	e.printf("\tfor i := range %s {\n", name)
	e.printf("\t\t%s[i] = complex(math.Sin(float64(3*i+1)), math.Cos(float64(7*i+2)))\n\t}\n", name)
}

func emitRealInput(e *emitter, name string, n int) {
	e.printf("\t%s := make([]float64, %d)\n", name, n)
	e.printf("\tfor i := range %s {\n", name)
	e.printf("\t\t%s[i] = math.Sin(float64(3*i+1)) + 0.5*math.Cos(float64(7*i+2))\n\t}\n", name)
}
