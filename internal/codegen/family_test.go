package codegen

import (
	"go/parser"
	"go/token"
	"strings"
	"testing"

	"spiralfft"
	xexec "spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/spl"
)

// familyCases covers every public plan family, each with a shape that
// exercises the parallel schedule where the family admits one.
var familyCases = []struct {
	spec    FamilySpec
	workers int
}{
	{FamilySpec{Family: "dft", N: 64}, 2},
	{FamilySpec{Family: "dft", N: 1024}, 2}, // leaves of 32 re-split into stages
	{FamilySpec{Family: "real", N: 128}, 2}, // inner DFT_64 parallelizes
	{FamilySpec{Family: "real", N: 2048}, 2},
	{FamilySpec{Family: "batch", N: 16, Count: 4}, 2},
	{FamilySpec{Family: "2d", N: 16, Cols: 16}, 2},
	{FamilySpec{Family: "wht", N: 64}, 2},
	{FamilySpec{Family: "dct", N: 64}, 2},
	{FamilySpec{Family: "stft", N: 32, Hop: 16}, 1},
}

// planProgram builds spec's plan through the family's public constructor
// and returns the program it runs.
func planProgram(t *testing.T, spec FamilySpec, opt *spiralfft.Options) *ir.Program {
	t.Helper()
	var plan interface {
		Program() *ir.Program
		Close()
	}
	var err error
	switch spec.Family {
	case "dft":
		plan, err = spiralfft.NewPlan(spec.N, opt)
	case "real":
		plan, err = spiralfft.NewRealPlan(spec.N, opt)
	case "batch":
		plan, err = spiralfft.NewBatchPlan(spec.N, spec.Count, opt)
	case "2d":
		plan, err = spiralfft.NewPlan2D(spec.N, spec.Cols, opt)
	case "wht":
		plan, err = spiralfft.NewWHTPlan(spec.N, opt)
	case "dct":
		plan, err = spiralfft.NewDCTPlan(spec.N, opt)
	case "stft":
		plan, err = spiralfft.NewSTFTPlan(spec.N, spec.Hop, spiralfft.WindowHann, opt)
	default:
		t.Fatalf("no plan constructor for family %q", spec.Family)
	}
	if err != nil {
		t.Fatalf("%s n=%d: plan: %v", spec.Family, spec.N, err)
	}
	t.Cleanup(plan.Close)
	return plan.Program()
}

func TestGenerateFamilyParses(t *testing.T) {
	fset := token.NewFileSet()
	for _, c := range familyCases {
		spec := c.spec
		src, err := GenerateFamily(spec, planProgram(t, spec, &spiralfft.Options{Workers: c.workers}), Config{EmitMain: true})
		if err != nil {
			t.Fatalf("GenerateFamily(%s): %v", spec.Family, err)
		}
		if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
			t.Errorf("family %s: generated source does not parse: %v\nfirst lines:\n%s",
				spec.Family, err, firstLines(src, 40))
		}
		if !strings.Contains(src, "package main") {
			t.Errorf("family %s: missing package clause", spec.Family)
		}
	}
}

func TestGenerateFamilyErrors(t *testing.T) {
	real128 := planProgram(t, FamilySpec{Family: "real", N: 128}, nil)
	wht64 := planProgram(t, FamilySpec{Family: "wht", N: 64}, nil)
	for _, c := range []struct {
		spec FamilySpec
		prog *ir.Program
		want string
	}{
		{FamilySpec{Family: "nope", N: 64}, wht64, "unknown family"},
		{FamilySpec{Family: "wht", N: 64}, nil, "needs a program"},
		{FamilySpec{Family: "real", N: 129}, real128, "even size"},
		{FamilySpec{Family: "stft", N: 128, Hop: 999}, real128, "hop"},
		{FamilySpec{Family: "wht", N: 128}, wht64, "not a wht program of size 128"},
		{FamilySpec{Family: "dft", N: 64}, real128, "not a dft program"},
		{FamilySpec{Family: "batch", N: 16}, wht64, "not a batch program"},
	} {
		_, err := GenerateFamily(c.spec, c.prog, Config{})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%+v: got error %v, want one containing %q", c.spec, err, c.want)
		}
	}
}

// TestEmitterRejectsUnsupportedPrograms pins the contract between lowering
// and emission: only fully typed forward programs within MaxSize are emitted.
func TestEmitterRejectsUnsupportedPrograms(t *testing.T) {
	generic := &ir.Program{Name: "generic", N: 8, P: 1, Nodes: []ir.Node{&ir.Region{Name: "r",
		Workers: [][]ir.Op{{ir.Generic{Dst: ir.BufDst, Src: ir.BufSrc, F: spl.NewDFT(8)}}}}}}
	fourStep, err := ir.LowerFourStep(64, 8, ir.FourStepConfig{P: 1})
	if err != nil {
		t.Fatal(err)
	}
	genCall := &ir.Program{Name: "gen", N: 8, P: 1, Nodes: []ir.Node{&ir.Region{Name: "r",
		Workers: [][]ir.Op{{ir.CodeletGenCall{Dst: ir.BufDst, DS: 1, Src: ir.BufSrc, SS: 1, Tree: xexec.LeafTree(8), TwDen: 64, TwRow: 1}}}}}}
	whtInv, err := ir.LowerWHTInverse(64, 1, 4)
	if err != nil {
		t.Fatal(err)
	}
	halfInv, err := ir.LowerTreeInverse(xexec.RadixTree(32))
	if err != nil {
		t.Fatal(err)
	}
	realInv, err := ir.RealInverse(halfInv)
	if err != nil {
		t.Fatal(err)
	}
	oversize, err := ir.LowerTree(xexec.RadixTree(2 * MaxSize))
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		prog *ir.Program
		want string
	}{
		{generic, "generic formula op"},
		{fourStep, "panel codelet call"},
		{genCall, "runtime-generated twiddle call"},
		{whtInv, "scaled WHT call"},
		{realInv, "retangle pass"},
		{oversize, "exceeds limit"},
	} {
		_, err := familyFile(c.prog, Config{PackageName: "main"}, "test", "Transform", func(*emitter) {})
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("program %q: got error %v, want one containing %q", c.prog.Name, err, c.want)
		}
	}
}

// TestGenerateFamilyEmitsGivenProgram pins that GenerateFamily emits the
// program it is handed: plans whose trees come from Wisdom entries that are
// not the radix defaults emit those trees' kernels, not the defaults', and
// the files self-test OK.
func TestGenerateFamilyEmitsGivenProgram(t *testing.T) {
	w := spiralfft.NewWisdom()
	// The radix default of 64 is one leaf, emitted as kernel16 and kernel4.
	w.Record(spiralfft.WisdomKey{N: 64, P: 1}, xexec.SplitTree(xexec.LeafTree(8), xexec.LeafTree(8)), 0)
	// The default parallel 256 is 16·16 with DFT_16 leaves (kernel16).
	w.Record(spiralfft.WisdomKey{N: 256, P: 2},
		xexec.SplitTree(xexec.SplitTree(xexec.LeafTree(4), xexec.LeafTree(8)), xexec.LeafTree(8)), 0)
	for _, c := range []struct {
		n, workers int
		tree       string
		kernels    []string
	}{
		{64, 1, "(8 x 8)", []string{"kernel8("}},
		{256, 2, "parallel p=2: left=(4 x 8), right=8", []string{"kernel4(", "kernel8("}},
	} {
		plan, err := spiralfft.NewPlan(c.n, &spiralfft.Options{Workers: c.workers, Wisdom: w})
		if err != nil {
			t.Fatal(err)
		}
		defer plan.Close()
		if got := plan.Tree(); got != c.tree {
			t.Fatalf("n=%d p=%d: plan tree %s, want the wisdom tree %s", c.n, c.workers, got, c.tree)
		}
		src, err := GenerateFamily(FamilySpec{Family: "dft", N: c.n}, plan.Program(), Config{EmitMain: true})
		if err != nil {
			t.Fatal(err)
		}
		for _, k := range c.kernels {
			if !strings.Contains(src, "func "+k) {
				t.Errorf("n=%d p=%d: emitted file lacks the wisdom tree's %s", c.n, c.workers, k)
			}
		}
		if strings.Contains(src, "func kernel16(") {
			t.Errorf("n=%d p=%d: emitted file has the radix default's kernel16", c.n, c.workers)
		}
		runGenerated(t, src)
	}
}

// TestGeneratedFamiliesRun compiles and runs the emitted program of every
// family: each self-tests against a naive reference and prints OK.
func TestGeneratedFamiliesRun(t *testing.T) {
	for _, c := range familyCases {
		spec := c.spec
		prog := planProgram(t, spec, &spiralfft.Options{Workers: c.workers})
		t.Run(spec.Family, func(t *testing.T) {
			t.Parallel()
			src, err := GenerateFamily(spec, prog, Config{EmitMain: true})
			if err != nil {
				t.Fatalf("GenerateFamily(%s): %v", spec.Family, err)
			}
			runGenerated(t, src)
		})
	}
}
