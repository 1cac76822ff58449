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
var familyCases = []FamilySpec{
	{Family: "dft", N: 64, Workers: 2},
	{Family: "dft", N: 1024, Workers: 2}, // leaves of 32 re-split into stages
	{Family: "real", N: 128, Workers: 2}, // inner DFT_64 parallelizes
	{Family: "real", N: 2048, Workers: 2},
	{Family: "batch", N: 16, Count: 4, Workers: 2},
	{Family: "2d", N: 16, Cols: 16, Workers: 2},
	{Family: "wht", N: 64, Workers: 2},
	{Family: "dct", N: 64, Workers: 2},
	{Family: "stft", N: 32, Hop: 16},
}

func TestGenerateFamilyParses(t *testing.T) {
	fset := token.NewFileSet()
	for _, spec := range familyCases {
		src, err := GenerateFamily(spec, Config{EmitMain: true})
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
	if _, err := GenerateFamily(FamilySpec{Family: "nope", N: 8}, Config{}); err == nil {
		t.Error("accepted unknown family")
	}
	if _, err := GenerateFamily(FamilySpec{Family: "real", N: 9}, Config{}); err == nil {
		t.Error("accepted odd real size")
	}
	if _, err := GenerateFamily(FamilySpec{Family: "wht", N: 12}, Config{}); err == nil {
		t.Error("accepted non-power-of-two WHT size")
	}
	if _, err := GenerateFamily(FamilySpec{Family: "stft", N: 16, Hop: 99}, Config{}); err == nil {
		t.Error("accepted out-of-range stft hop")
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

// TestFamiliesLowerAsPlans pins that each family lowers exactly as its plan
// constructor does under the default planner: both programs print the same.
func TestFamiliesLowerAsPlans(t *testing.T) {
	for _, n := range []int{64, 256, 1024, 4096} {
		for _, p := range []int{1, 2} {
			opt := &spiralfft.Options{Workers: p}
			for _, family := range []string{"dft", "real", "batch", "2d", "wht"} {
				_, want, err := lowerFamily(FamilySpec{Family: family, N: n, Workers: p})
				if err != nil {
					t.Fatalf("%s n=%d p=%d: %v", family, n, p, err)
				}
				var plan interface {
					Program() *ir.Program
					Close()
				}
				switch family {
				case "dft":
					plan, err = spiralfft.NewPlan(n, opt)
				case "real":
					plan, err = spiralfft.NewRealPlan(n, opt)
				case "batch":
					plan, err = spiralfft.NewBatchPlan(n, 4, opt)
				case "2d":
					plan, err = spiralfft.NewPlan2D(n, n, opt)
				case "wht":
					plan, err = spiralfft.NewWHTPlan(n, opt)
				}
				if err != nil {
					t.Fatalf("%s n=%d p=%d: plan: %v", family, n, p, err)
				}
				if got := plan.Program().String(); got != want.String() {
					t.Errorf("%s n=%d p=%d: family program differs from the plan's\nfamily: %s\nplan:   %s",
						family, n, p, firstLines(want.String(), 4), firstLines(got, 4))
				}
				plan.Close()
			}
		}
	}
}

// TestGeneratedFamiliesRun compiles and runs the emitted program of every
// family: each self-tests against a naive reference and prints OK.
func TestGeneratedFamiliesRun(t *testing.T) {
	for _, spec := range familyCases {
		spec := spec
		t.Run(spec.Family, func(t *testing.T) {
			t.Parallel()
			src, err := GenerateFamily(spec, Config{EmitMain: true})
			if err != nil {
				t.Fatalf("GenerateFamily(%s): %v", spec.Family, err)
			}
			runGenerated(t, src)
		})
	}
}
