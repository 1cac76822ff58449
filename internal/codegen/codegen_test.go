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
)

// compositeLeft is 256 = 16·16 with a composite left child: at p=2, µ=2 the
// root split is admissible and stage 2 takes the pre-scale path.
var compositeLeft = xexec.SplitTree(xexec.SplitTree(xexec.LeafTree(4), xexec.LeafTree(4)), xexec.LeafTree(16))

// generate emits the dft family for spec, whose Tree (when set) fixes the
// factorization.
func generate(t *testing.T, spec FamilySpec, cfg Config) string {
	t.Helper()
	spec.Family = "dft"
	src, err := GenerateFamily(spec, cfg)
	if err != nil {
		t.Fatalf("GenerateFamily(dft, n=%d, tree %v): %v", spec.N, spec.Tree, err)
	}
	return src
}

func TestGeneratedSourceParses(t *testing.T) {
	cases := []struct {
		spec FamilySpec
		cfg  Config
		want []string
	}{
		{FamilySpec{N: 8, Tree: xexec.LeafTree(8)}, Config{}, nil},
		{FamilySpec{N: 64, Tree: xexec.RadixTree(64)}, Config{}, nil},
		{FamilySpec{N: 256, Tree: xexec.SplitTree(xexec.LeafTree(16), xexec.LeafTree(16)), Workers: 2}, Config{EmitMain: true}, nil},
		{FamilySpec{N: 256, Tree: compositeLeft, Workers: 2, Mu: 2}, Config{}, nil},
		{FamilySpec{N: 100, Tree: xexec.RadixTree(100)}, Config{PackageName: "gen", FuncName: "Transform"},
			[]string{"package gen\n", "func Transform(dst, src []complex128)"}},
	}
	fset := token.NewFileSet()
	for _, c := range cases {
		src := generate(t, c.spec, c.cfg)
		if _, err := parser.ParseFile(fset, "gen.go", src, 0); err != nil {
			t.Errorf("tree %s: generated source does not parse: %v\nfirst lines:\n%s",
				c.spec.Tree, err, firstLines(src, 30))
		}
		for _, want := range c.want {
			if !strings.Contains(src, want) {
				t.Errorf("tree %s: generated source missing %q", c.spec.Tree, want)
			}
		}
	}
}

func TestGeneratedSourceStructure(t *testing.T) {
	src := generate(t, FamilySpec{N: 256, Tree: xexec.SplitTree(xexec.LeafTree(16), xexec.LeafTree(16)), Workers: 2},
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
	src := generate(t, FamilySpec{N: 4}, Config{})
	// A 4-point kernel must not contain any complex constant multiplies:
	// all twiddles are ±1 or ±i and must be folded.
	body := src[strings.Index(src, "func kernel4("):]
	body = body[:strings.Index(body, "}\n")]
	if strings.Contains(body, "complex(0.") || strings.Contains(body, "complex(-0.") {
		t.Errorf("kernel4 contains unfolded constants:\n%s", body)
	}
}

func TestGenerateErrors(t *testing.T) {
	if _, err := GenerateFamily(FamilySpec{Family: "dft", N: 1 << 15}, Config{}); err == nil {
		t.Error("accepted oversized transform")
	}
	bad := &xexec.Tree{N: 8, Left: xexec.LeafTree(2), Right: xexec.LeafTree(2)}
	if _, err := GenerateFamily(FamilySpec{Family: "dft", N: 8, Tree: bad}, Config{}); err == nil {
		t.Error("accepted invalid tree")
	}
	if _, err := GenerateFamily(FamilySpec{Family: "dft", N: 32, Tree: xexec.RadixTree(16)}, Config{}); err == nil {
		t.Error("accepted a tree of the wrong size")
	}
	if _, err := GenerateFamily(FamilySpec{Family: "real", N: 32, Tree: xexec.RadixTree(16)}, Config{}); err == nil {
		t.Error("accepted a tree for a family other than dft")
	}
	// 64 = 32·2: pµ = 8 does not divide 2, so the tree runs sequentially,
	// as a plan with that factorization would.
	src := generate(t, FamilySpec{N: 64, Tree: xexec.RadixTree(64), Workers: 2}, Config{})
	if strings.Contains(src, "sync") || !strings.Contains(src, "p=1") {
		t.Errorf("non-admissible tree did not fall back to the sequential program:\n%s", firstLines(src, 12))
	}
}

// TestGeneratedProgramRuns compiles and runs emitted DFTs of fixed trees end
// to end: the generated main self-tests against the naive DFT and prints OK.
func TestGeneratedProgramRuns(t *testing.T) {
	for _, spec := range []FamilySpec{
		{N: 64, Tree: xexec.RadixTree(64)},
		{N: 256, Tree: xexec.SplitTree(xexec.LeafTree(16), xexec.LeafTree(16)), Workers: 2},
		{N: 256, Tree: compositeLeft, Workers: 2, Mu: 2},
	} {
		runGenerated(t, generate(t, spec, Config{EmitMain: true}))
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
