package spiralfft_test

import (
	"fmt"
	"math/rand"
	"testing"

	"spiralfft"
	"spiralfft/internal/baseline"
	"spiralfft/internal/complexvec"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/rewrite"
	"spiralfft/internal/smp"
	"spiralfft/internal/spl"
)

// TestCrossValidation is the grand agreement check: for randomly drawn
// configurations, every implementation in the repository — public plans
// (all planners/backends), the raw executors and IR programs, the three
// baselines, the formula interpreter, and the expanded formula lowered to
// the IR — must produce the same DFT, with the O(n²) definition as the
// anchor.
func TestCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(20260705))
	logNs := []int{6, 8, 10, 12}
	for trial := 0; trial < 8; trial++ {
		n := 1 << uint(logNs[rng.Intn(len(logNs))])
		x := complexvec.Random(n, rng.Uint64())
		want := make([]complex128, n)
		spl.NewDFT(n).Apply(want, x)

		results := map[string][]complex128{}
		run := func(name string, f func(dst []complex128) error) {
			dst := make([]complex128, n)
			if err := f(dst); err != nil {
				t.Errorf("n=%d %s: %v", n, name, err)
				return
			}
			results[name] = dst
		}

		// Public plans across option combinations.
		for _, opt := range []*spiralfft.Options{
			nil,
			{Workers: 2},
			{Workers: 2, Backend: spiralfft.BackendSpawn},
			{Workers: 2, CacheLineComplex: 2},
			{Planner: spiralfft.PlannerEstimate},
		} {
			opt := opt
			run(fmt.Sprintf("plan%+v", opt), func(dst []complex128) error {
				p, err := spiralfft.NewPlan(n, opt)
				if err != nil {
					return err
				}
				defer p.Close()
				return p.Forward(dst, x)
			})
		}

		// Raw executors and IR programs.
		run("seq-radix", func(dst []complex128) error {
			exec.MustNewSeq(exec.RadixTree(n)).Transform(dst, x, nil)
			return nil
		})
		run("seq-balanced", func(dst []complex128) error {
			exec.MustNewSeq(exec.BalancedTree(n)).Transform(dst, x, nil)
			return nil
		})
		if m, ok := exec.SplitFor(n, 2, 4); ok {
			run("parallel-cyclic", func(dst []complex128) error {
				prog, err := ir.LowerCT(n, m, ir.CTConfig{P: 2, Mu: 4, Schedule: ir.ScheduleCyclic})
				if err != nil {
					return err
				}
				return runProgram(prog, dst, x)
			})
		}

		// Baselines.
		run("fftwlike", func(dst []complex128) error {
			fw, err := baseline.NewFFTWLike(n, baseline.FFTWConfig{MaxThreads: 2, Mode: baseline.ModeEstimate, Threshold: 512})
			if err != nil {
				return err
			}
			defer fw.Close()
			fw.Transform(dst, x)
			return nil
		})
		run("stockham", func(dst []complex128) error {
			s, err := baseline.NewStockham(n, 1, nil)
			if err != nil {
				return err
			}
			s.Transform(dst, x)
			return nil
		})
		if m, ok := exec.SplitFor(n, 2, 1); ok {
			run("sixstep", func(dst []complex128) error {
				pool := smp.NewPool(2)
				defer pool.Close()
				s, err := baseline.NewSixStep(n, m, 2, pool)
				if err != nil {
					return err
				}
				s.Transform(dst, x)
				return nil
			})
		}

		// Formula paths.
		if m, ok := exec.SplitFor(n, 2, 4); ok {
			run("formula14-interp", func(dst []complex128) error {
				f, _, err := rewrite.DeriveMulticoreCT(n, m, 2, 4)
				if err != nil {
					return err
				}
				f.Apply(dst, x)
				return nil
			})
			run("formula14-expanded-ir", func(dst []complex128) error {
				f, _, err := rewrite.DeriveExpandedMulticoreCT(n, m, 2, 4)
				if err != nil {
					return err
				}
				raw, err := ir.FromFormula(f, 2, 4)
				if err != nil {
					return err
				}
				prog, err := ir.Fold(raw)
				if err != nil {
					return err
				}
				return runProgram(prog, dst, x)
			})
		}

		for name, got := range results {
			if e := complexvec.RelError(got, want); e > 1e-9 {
				t.Errorf("n=%d: %s disagrees with the definition by %g", n, name, e)
			}
		}
	}
}

// runProgram executes a lowered program on a pool sized to its worker count.
func runProgram(prog *ir.Program, dst, src []complex128) error {
	var b smp.Backend
	if prog.P > 1 {
		pool := smp.NewPool(prog.P)
		defer pool.Close()
		b = pool
	}
	e, err := ir.NewExecutor(prog, b)
	if err != nil {
		return err
	}
	e.Transform(dst, src)
	return nil
}
