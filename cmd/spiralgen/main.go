// Command spiralgen is the program generator front end, the analogue of
// running Spiral for one transform: it builds the requested family's plan
// through the library's public constructor, then either prints the SPL
// formula and rewriting derivation of that plan (Figure 2 / formula (14) of
// the paper) or emits a standalone Go source file implementing the program
// the plan runs.
//
//	spiralgen -n 256 -p 2 -formula        # show formula (14) and derivation
//	spiralgen -n 256 -p 2 -main -o gen.go # emit a self-testing DFT program
//	spiralgen -family real -n 256 -main   # emit any of the seven plan families
//	spiralgen -family wht -n 256 -tune    # emit what PlannerMeasure ships
//
// The emitted code is the plan's own stage-plan IR program (internal/ir),
// the object the executor runs and the cache simulator audits, so it follows
// every choice the constructor made. With -tune every family plans with
// PlannerMeasure, and the emitted program is the one measurement picked,
// which may be the sequential one.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"spiralfft"
	"spiralfft/internal/codegen"
	"spiralfft/internal/ir"
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
		formula  = flag.Bool("formula", false, "print the plan's SPL formula and derivation instead of code")
		out      = flag.String("o", "", "output file (default stdout)")
		pkg      = flag.String("pkg", "main", "package name for generated code")
		fn       = flag.String("func", "", "function name (default per family, e.g. DFT<n>)")
		emitMain = flag.Bool("main", false, "emit a self-testing main()")
		tune     = flag.Bool("tune", false, "plan by measurement (PlannerMeasure) before generating")
	)
	flag.Parse()

	spec := codegen.FamilySpec{Family: *family, N: *n, Cols: *cols, Count: *count, Hop: *hop}
	if spec.Cols == 0 {
		spec.Cols = spec.N
	}
	if spec.Hop == 0 {
		spec.Hop = spec.N / 2
	}
	opt := &spiralfft.Options{Workers: *p, CacheLineComplex: *mu}
	if *tune {
		opt.Planner = spiralfft.PlannerMeasure
	}
	cfg := codegen.Config{PackageName: *pkg, FuncName: *fn, EmitMain: *emitMain}
	if err := run(spec, opt, *formula, cfg, *out); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// run builds spec's plan and prints its formula or emits its program.
func run(spec codegen.FamilySpec, opt *spiralfft.Options, formula bool, cfg codegen.Config, out string) error {
	pl, err := newPlan(spec, opt)
	if err != nil {
		return err
	}
	defer pl.Close()
	prog := pl.Program()
	if formula {
		f, ok := pl.(formulaPlan)
		if !ok {
			return fmt.Errorf("-formula supports -family dft, wht or 2d, not %q", spec.Family)
		}
		printFormula(spec, prog.P, opt.CacheLineComplex, f)
		return nil
	}
	src, err := codegen.GenerateFamily(spec, prog, cfg)
	if err != nil {
		return err
	}
	if out == "" {
		fmt.Print(src)
		return nil
	}
	if err := os.WriteFile(out, []byte(src), 0o644); err != nil {
		return err
	}
	fmt.Fprintf(os.Stderr, "wrote %s (%d bytes, family %s, n=%d, p=%d)\n", out, len(src), spec.Family, spec.N, prog.P)
	return nil
}

// plan is what spiralgen needs of every family's plan.
type plan interface {
	Program() *ir.Program
	Close()
}

// formulaPlan is a plan that carries its SPL formula: dft, wht and 2d.
type formulaPlan interface {
	Formula() string
	Derivation() string
}

// newPlan builds spec's plan through the family's public constructor.
func newPlan(spec codegen.FamilySpec, opt *spiralfft.Options) (plan, error) {
	switch spec.Family {
	case "dft":
		return spiralfft.NewPlan(spec.N, opt)
	case "real":
		return spiralfft.NewRealPlan(spec.N, opt)
	case "batch":
		return spiralfft.NewBatchPlan(spec.N, spec.Count, opt)
	case "2d":
		return spiralfft.NewPlan2D(spec.N, spec.Cols, opt)
	case "wht":
		return spiralfft.NewWHTPlan(spec.N, opt)
	case "dct":
		return spiralfft.NewDCTPlan(spec.N, opt)
	case "stft":
		return spiralfft.NewSTFTPlan(spec.N, spec.Hop, spiralfft.WindowHann, opt)
	}
	return nil, fmt.Errorf("unknown family %q (want one of %v)", spec.Family, codegen.Families)
}

// printFormula prints the plan's formula and, for a parallel plan, the
// rewriting derivation that produced it.
func printFormula(spec codegen.FamilySpec, workers, mu int, f formulaPlan) {
	d := f.Derivation()
	what := fmt.Sprintf("DFT_%d, p=%d, µ=%d", spec.N, workers, mu)
	switch {
	case spec.Family == "wht":
		what = fmt.Sprintf("Walsh-Hadamard transform WHT_%d, p=%d, µ=%d", spec.N, workers, mu)
	case spec.Family == "2d":
		what = fmt.Sprintf("2D DFT (row-column) for a %d×%d array, p=%d, µ=%d", spec.N, spec.Cols, workers, mu)
	case d != "":
		what = fmt.Sprintf("Cooley-Tukey FFT for %s (formula (14))", what)
	}
	if d != "" {
		what = "Multicore " + what
	}
	fmt.Printf("%s:\n\n  %s\n", what, f.Formula())
	if d != "" {
		fmt.Printf("\nDerivation:\n%s", d)
	}
}
