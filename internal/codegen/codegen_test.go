package codegen

import (
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	xexec "spiralfft/internal/exec"
	"spiralfft/internal/ir"
)

// compositeLeft is 256 = 16·16 with a composite left child: at p=2, µ=2 the
// root split is admissible and stage 2 takes the pre-scale path.
var compositeLeft = xexec.SplitTree(xexec.SplitTree(xexec.LeafTree(4), xexec.LeafTree(4)), xexec.LeafTree(16))

// treeCase is a DFT of a fixed factorization tree on p workers with
// cache-line length µ (default 4).
type treeCase struct {
	tree    *xexec.Tree
	workers int
	mu      int
}

// lower lowers c as a plan with that factorization does: a root split that
// is pµ-admissible lowers as formula (14) with the root's children as
// sub-trees, any other tree as one sequential call.
func (c treeCase) lower(t *testing.T) *ir.Program {
	t.Helper()
	mu := c.mu
	if mu == 0 {
		mu = 4
	}
	var prog *ir.Program
	var err error
	if q := c.workers * mu; c.workers > 1 && !c.tree.Leaf && c.tree.M()%q == 0 && c.tree.K()%q == 0 {
		prog, err = ir.LowerCT(c.tree.N, c.tree.M(), ir.CTConfig{P: c.workers, Mu: mu, LeftTree: c.tree.Left, RightTree: c.tree.Right})
	} else {
		prog, err = ir.LowerTree(c.tree)
	}
	if err != nil {
		t.Fatalf("lower tree %s: %v", c.tree, err)
	}
	return prog
}

// generate emits the dft family for c's lowered tree.
func generate(t *testing.T, c treeCase, cfg Config) string {
	t.Helper()
	src, err := GenerateFamily(FamilySpec{Family: "dft", N: c.tree.N}, c.lower(t), cfg)
	if err != nil {
		t.Fatalf("GenerateFamily(dft, tree %s): %v", c.tree, err)
	}
	return src
}

func TestGeneratedSourceParses(t *testing.T) {
	cases := []struct {
		tc   treeCase
		cfg  Config
		want []string
	}{
		{treeCase{tree: xexec.LeafTree(8)}, Config{}, nil},
		{treeCase{tree: xexec.RadixTree(64)}, Config{}, nil},
		{treeCase{tree: xexec.SplitTree(xexec.LeafTree(16), xexec.LeafTree(16)), workers: 2}, Config{EmitMain: true}, nil},
		{treeCase{tree: compositeLeft, workers: 2, mu: 2}, Config{}, nil},
		{treeCase{tree: xexec.RadixTree(100)}, Config{PackageName: "gen", FuncName: "Transform"},
			[]string{"package gen\n", "func Transform(dst, src []complex128)"}},
	}
	fset := token.NewFileSet()
	for _, c := range cases {
		src := generate(t, c.tc, c.cfg)
		if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
			t.Errorf("tree %s: generated source does not parse: %v\nfirst lines:\n%s",
				c.tc.tree, err, firstLines(src, 30))
		}
		for _, want := range c.want {
			if !strings.Contains(src, want) {
				t.Errorf("tree %s: generated source missing %q", c.tc.tree, want)
			}
		}
	}
}

func TestGeneratedSourceStructure(t *testing.T) {
	src := generate(t, treeCase{tree: xexec.SplitTree(xexec.LeafTree(16), xexec.LeafTree(16)), workers: 2},
		Config{EmitMain: true})
	for _, want := range []string{
		"package main",
		"func DFT256(dst, src []complex128)",
		`executes the lowered program "multicore-ct": n=256, p=2`,
		"kernel16(",
		"kernel16_tw(",
		"wg.Wait()",
		"var cv", // twiddle columns
		"func main()",
		"Code generated",
	} {
		if !strings.Contains(src, want) {
			t.Errorf("generated source missing %q", want)
		}
	}
}

func TestKernelConstantFolding(t *testing.T) {
	src := generate(t, treeCase{tree: xexec.LeafTree(4)}, Config{})
	// A 4-point kernel must not contain any complex constant multiplies:
	// all twiddles are ±1 or ±i and must be folded.
	body := src[strings.Index(src, "func kernel4("):]
	body = body[:strings.Index(body, "}\n")]
	if strings.Contains(body, "complex(0.") || strings.Contains(body, "complex(-0.") {
		t.Errorf("kernel4 contains unfolded constants:\n%s", body)
	}
}

func TestGenerateErrors(t *testing.T) {
	oversize := treeCase{tree: xexec.RadixTree(1 << 15)}
	if _, err := GenerateFamily(FamilySpec{Family: "dft", N: 1 << 15}, oversize.lower(t), Config{}); err == nil {
		t.Error("accepted oversized transform")
	}
	dft16 := treeCase{tree: xexec.RadixTree(16)}
	if _, err := GenerateFamily(FamilySpec{Family: "dft", N: 32}, dft16.lower(t), Config{}); err == nil {
		t.Error("accepted a program of the wrong size")
	}
}

// TestGeneratedProgramRuns compiles and runs emitted DFTs of fixed trees end
// to end: the generated main self-tests against the naive DFT and prints OK.
func TestGeneratedProgramRuns(t *testing.T) {
	for _, c := range []treeCase{
		{tree: xexec.RadixTree(64)},
		{tree: xexec.SplitTree(xexec.LeafTree(16), xexec.LeafTree(16)), workers: 2},
		{tree: compositeLeft, workers: 2, mu: 2},
	} {
		runGenerated(t, generate(t, c, Config{EmitMain: true}))
	}
}

// runGenerated compiles and runs an emitted self-testing program and fails
// unless it prints OK.
func runGenerated(t *testing.T, src string) {
	t.Helper()
	if testing.Short() {
		t.Skip("skipping go-run integration in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable")
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "main.go"), []byte(src), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte("module gen\n\ngo 1.22\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command("go", "run", ".")
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go run failed: %v\n%s\nfirst lines:\n%s", err, out, firstLines(src, 3))
	}
	if got := strings.TrimSpace(string(out)); got != "OK" {
		t.Errorf("generated program printed %q, want OK\nfirst lines:\n%s", got, firstLines(src, 3))
	}
}

func firstLines(s string, n int) string {
	lines := strings.SplitN(s, "\n", n+1)
	if len(lines) > n {
		lines = lines[:n]
	}
	return strings.Join(lines, "\n")
}
