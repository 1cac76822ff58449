// Command spiralgen is the program generator front end, the analogue of
// running Spiral for one transform: it derives the algorithm, optionally
// prints the SPL formula and the full rewriting derivation (Figure 2 /
// formula (14) of the paper), and emits a standalone Go source file
// implementing the transform.
//
//	spiralgen -n 256 -p 2 -formula        # show formula (14) and derivation
//	spiralgen -n 256 -p 2 -main -o gen.go # emit a self-testing DFT program
//	spiralgen -family real -n 256 -main   # emit any of the seven plan families
//
// The requested plan family (default dft) is lowered to the stage-plan IR
// (internal/ir) exactly as the library lowers it at plan time, and the
// generator walks that program — the same pipeline the executor and the
// cache simulator consume. With -tune the DFT's factorization is chosen by
// measurement first.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"spiralfft/internal/codegen"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/rewrite"
	"spiralfft/internal/search"
	"spiralfft/internal/spl"
)

func main() {
	var (
		family   = flag.String("family", "dft", "plan family: dft | real | batch | 2d | wht | dct | stft (with -formula: dft | wht | 2d)")
		cols     = flag.Int("cols", 0, "2d only: column count (rows come from -n)")
		count    = flag.Int("count", 4, "batch family: signal count")
		hop      = flag.Int("hop", 0, "stft family: hop size (default frame/2)")
		n        = flag.Int("n", 256, "transform size")
		p        = flag.Int("p", runtime.NumCPU(), "workers (1 = sequential)")
		mu       = flag.Int("mu", 4, "cache-line length µ in complex128 elements")
		formula  = flag.Bool("formula", false, "print the derived SPL formula and derivation instead of code")
		out      = flag.String("o", "", "output file (default stdout)")
		pkg      = flag.String("pkg", "main", "package name for generated code")
		fn       = flag.String("func", "", "function name (default per family, e.g. DFT<n>)")
		emitMain = flag.Bool("main", false, "emit a self-testing main()")
		tune     = flag.Bool("tune", false, "dft family: tune the factorization by measurement before generating")
		latex    = flag.Bool("latex", false, "with -formula: additionally print the formula in LaTeX")
	)
	flag.Parse()

	latexOut = *latex
	if *formula {
		switch *family {
		case "dft":
			printFormula(*n, *p, *mu)
		case "wht":
			printWHTFormula(*n, *p, *mu)
		case "2d":
			print2DFormula(*n, *cols, *p, *mu)
		default:
			fmt.Fprintf(os.Stderr, "-formula supports -family dft, wht or 2d, not %q\n", *family)
			os.Exit(2)
		}
		return
	}
	spec := codegen.FamilySpec{
		Family:  *family,
		N:       *n,
		Cols:    *cols,
		Count:   *count,
		Hop:     *hop,
		Workers: *p,
		Mu:      *mu,
	}
	if *tune {
		if *family != "dft" {
			fmt.Fprintf(os.Stderr, "-tune applies to -family dft only, not %q\n", *family)
			os.Exit(2)
		}
		spec.Tree = chooseTree(*n, *p, *mu)
	}
	src, err := codegen.GenerateFamily(spec, codegen.Config{PackageName: *pkg, FuncName: *fn, EmitMain: *emitMain})
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	writeOut(*out, src, fmt.Sprintf("family %s, n=%d, p=%d", *family, *n, *p))
}

// writeOut prints the generated source to stdout or writes it to a file.
func writeOut(path, src, desc string) {
	if path == "" {
		fmt.Print(src)
		return
	}
	if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes, %s)\n", path, len(src), desc)
}

// chooseTree tunes the factorization by measurement: for parallel targets
// the top split must satisfy pµ | m and pµ | k.
func chooseTree(n, p, mu int) *exec.Tree {
	tuner := search.NewTuner(search.StrategyDP)
	if p > 1 {
		if m, ok := exec.SplitFor(n, p, mu); ok {
			return exec.SplitTree(tuner.BestTree(m).Tree, tuner.BestTree(n/m).Tree)
		}
		fmt.Fprintf(os.Stderr, "no pµ-admissible split for n=%d, p=%d, µ=%d; generating sequential code\n", n, p, mu)
	}
	return tuner.BestTree(n).Tree
}

var latexOut bool

func printFormula(n, p, mu int) {
	if p <= 1 {
		g, ok := rewrite.CooleyTukey(largestSplit(n)).Apply(spl.NewDFT(n))
		if !ok {
			fmt.Printf("DFT_%d (no Cooley-Tukey split)\n", n)
			return
		}
		fmt.Printf("Sequential Cooley-Tukey FFT (rule (1)):\n  %s\n", g.String())
		return
	}
	m, ok := exec.SplitFor(n, p, mu)
	if !ok {
		fmt.Fprintf(os.Stderr, "no pµ-admissible split for n=%d, p=%d, µ=%d ((pµ)² must divide N)\n", n, p, mu)
		os.Exit(1)
	}
	f, trace, err := rewrite.DeriveMulticoreCT(n, m, p, mu)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("Multicore Cooley-Tukey FFT for DFT_%d, p=%d, µ=%d (formula (14)):\n\n", n, p, mu)
	fmt.Printf("  %s\n\nDerivation:\n%s", f.String(), trace.String())
	if latexOut {
		fmt.Printf("\nLaTeX:\n  %s\n", spl.Latex(f))
	}
}

// printWHTFormula derives and prints the fully optimized WHT formula with
// the split the WHT plans run (ir.WHTSplit), or the sequential transform
// when no split is admissible.
func printWHTFormula(n, p, mu int) {
	k := 0
	for v := n; v > 1; v >>= 1 {
		k++
	}
	if 1<<uint(k) != n || k < 2 {
		fmt.Fprintf(os.Stderr, "WHT needs a power-of-two size ≥ 4, got %d\n", n)
		os.Exit(1)
	}
	a, ok := ir.WHTSplit(n, p, mu)
	if !ok {
		fmt.Printf("Walsh-Hadamard transform WHT_%d, p=%d, µ=%d: no admissible multicore split\n"+
			"(p must be a power of two ≥ 2 with (pµ)² dividing n); the plan is sequential:\n\n  WHT_%d\n", n, p, mu, n)
		return
	}
	f, trace, err := rewrite.DeriveMulticoreWHT(k, a, p, mu)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("Multicore Walsh-Hadamard transform WHT_%d, p=%d, µ=%d:\n\n  %s\n\nDerivation:\n%s", n, p, mu, f.String(), trace.String())
}

// print2DFormula derives and prints the fully optimized 2D DFT formula.
func print2DFormula(rows, cols, p, mu int) {
	if cols == 0 {
		cols = rows
	}
	f, trace, err := rewrite.Derive2D(rows, cols, p, mu)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
	fmt.Printf("Multicore 2D DFT (row-column) for a %d×%d array, p=%d, µ=%d:\n\n  %s\n\nDerivation:\n%s", rows, cols, p, mu, f.String(), trace.String())
}

func largestSplit(n int) int {
	for m := n / 2; m >= 2; m-- {
		if n%m == 0 {
			return m
		}
	}
	return 2
}
