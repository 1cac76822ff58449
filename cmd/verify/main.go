// Command verify is the library's built-in self-test: it validates every
// execution path against the O(n²) definition across a matrix of sizes,
// worker counts, backends and transform kinds, and checks the Definition-1
// guarantees on the parallel plans' memory traces. Run it after porting or
// modifying the library; it prints one line per check and exits non-zero on
// any failure.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"spiralfft"
	"spiralfft/internal/cachesim"
	"spiralfft/internal/codelet"
	"spiralfft/internal/complexvec"
	"spiralfft/internal/rewrite"
	"spiralfft/internal/spl"
)

const tol = 1e-9

var failures int

func check(name string, ok bool, detail string) {
	status := "ok"
	if !ok {
		status = "FAIL"
		failures++
	}
	fmt.Printf("%-58s %s", name, status)
	if !ok && detail != "" {
		fmt.Printf("  (%s)", detail)
	}
	fmt.Println()
}

func refDFT(x []complex128) []complex128 {
	y := make([]complex128, len(x))
	codelet.Naive(len(x)).Apply(y, 0, 1, x, 0, 1, nil)
	return y
}

func main() {
	maxWorkers := flag.Int("p", runtime.NumCPU(), "maximum worker count to verify")
	flag.Parse()

	sizes := []int{2, 3, 8, 16, 60, 64, 100, 256, 1000, 1009, 1024, 4096}
	workerSet := []int{1}
	for p := 2; p <= *maxWorkers; p *= 2 {
		workerSet = append(workerSet, p)
	}

	// Complex plans: every size × worker count × backend.
	for _, n := range sizes {
		want := refDFT(complexvec.Random(n, uint64(n)))
		for _, p := range workerSet {
			for _, bk := range []spiralfft.Backend{spiralfft.BackendPool, spiralfft.BackendSpawn} {
				plan, err := spiralfft.NewPlan(n, &spiralfft.Options{Workers: p, Backend: bk})
				if err != nil {
					check(fmt.Sprintf("plan n=%d p=%d %s", n, p, bk), false, err.Error())
					continue
				}
				x := complexvec.Random(n, uint64(n))
				got := make([]complex128, n)
				err = plan.Forward(got, x)
				e := complexvec.RelError(got, want)
				check(fmt.Sprintf("forward n=%d p=%d %s", n, p, bk), err == nil && e <= tol,
					fmt.Sprintf("err=%v rel=%.2g", err, e))
				back := make([]complex128, n)
				plan.Inverse(back, got)
				e = complexvec.RelError(back, x)
				check(fmt.Sprintf("roundtrip n=%d p=%d %s", n, p, bk), e <= tol, fmt.Sprintf("rel=%.2g", e))
				plan.Close()
			}
		}
	}

	// Real and WHT plans.
	for _, n := range []int{64, 256, 1024} {
		rp, err := spiralfft.NewRealPlan(n, &spiralfft.Options{Workers: workerSet[len(workerSet)-1]})
		if err != nil {
			check(fmt.Sprintf("real plan n=%d", n), false, err.Error())
		} else {
			xr := make([]float64, n)
			for i := range xr {
				xr[i] = float64((i*7)%13) - 6
			}
			spec := make([]complex128, n/2+1)
			back := make([]float64, n)
			rp.Forward(spec, xr)
			rp.Inverse(back, spec)
			worst := 0.0
			for i := range xr {
				if d := back[i] - xr[i]; d > worst || -d > worst {
					worst = d
					if worst < 0 {
						worst = -worst
					}
				}
			}
			check(fmt.Sprintf("real roundtrip n=%d", n), worst <= 1e-9, fmt.Sprintf("max=%.2g", worst))
			rp.Close()
		}
		wp, err := spiralfft.NewWHTPlan(n, &spiralfft.Options{Workers: workerSet[len(workerSet)-1]})
		if err != nil {
			check(fmt.Sprintf("wht plan n=%d", n), false, err.Error())
		} else {
			x := complexvec.Random(n, 5)
			y := make([]complex128, n)
			z := make([]complex128, n)
			wp.Transform(y, x)
			wp.Transform(z, y)
			complexvec.Scale(z, complex(1/float64(n), 0))
			e := complexvec.RelError(z, x)
			check(fmt.Sprintf("wht involution n=%d", n), e <= tol, fmt.Sprintf("rel=%.2g", e))
			wp.Close()
		}
	}

	// Definition-1 guarantees on traces: the program a parallel plan runs
	// must be false-sharing free and perfectly balanced for every config.
	for _, c := range []struct{ n, p, mu int }{{256, 2, 4}, {1024, 2, 4}, {4096, 4, 4}} {
		plan, err := spiralfft.NewPlan(c.n, &spiralfft.Options{Workers: c.p, CacheLineComplex: c.mu})
		if err != nil || !plan.IsParallel() {
			check(fmt.Sprintf("parallel plan n=%d p=%d", c.n, c.p), false, fmt.Sprintf("err=%v", err))
			continue
		}
		rep := cachesim.AnalyzeProgram(plan.Program(), c.mu)
		plan.Close()
		check(fmt.Sprintf("no false sharing n=%d p=%d µ=%d", c.n, c.p, c.mu),
			rep.FalseSharingFree(), fmt.Sprintf("%d lines", rep.TotalFalseSharedLines()))
		check(fmt.Sprintf("perfect balance n=%d p=%d", c.n, c.p),
			rep.MaxImbalance() == 1.0, fmt.Sprintf("imbalance=%.3f", rep.MaxImbalance()))
	}

	// The same guarantees for the parallel WHT programs: stage 1's blocks
	// and stage 2's row-slice column ranges are µ-aligned and equal.
	for _, c := range []struct{ n, p, mu int }{{4096, 2, 4}, {4096, 4, 4}} {
		wp, err := spiralfft.NewWHTPlan(c.n, &spiralfft.Options{Workers: c.p, CacheLineComplex: c.mu})
		if err != nil || !wp.IsParallel() {
			check(fmt.Sprintf("parallel wht plan n=%d p=%d", c.n, c.p), false, fmt.Sprintf("err=%v", err))
			continue
		}
		rep := cachesim.AnalyzeProgram(wp.Program(), c.mu)
		wp.Close()
		check(fmt.Sprintf("wht no false sharing n=%d p=%d µ=%d", c.n, c.p, c.mu),
			rep.FalseSharingFree(), fmt.Sprintf("%d lines", rep.TotalFalseSharedLines()))
		check(fmt.Sprintf("wht perfect balance n=%d p=%d", c.n, c.p),
			rep.MaxImbalance() == 1.0, fmt.Sprintf("imbalance=%.3f", rep.MaxImbalance()))
	}

	// Formula (14) derivation identity.
	f, _, err := rewrite.DeriveMulticoreCT(256, 16, 2, 4)
	ok := err == nil && spl.IsFullyOptimized(f, 2, 4)
	if ok {
		x := complexvec.Random(256, 1)
		y := make([]complex128, 256)
		f.Apply(y, x)
		ok = complexvec.RelError(y, refDFT(x)) <= tol
	}
	check("formula (14) derivation (DFT_256, p=2, µ=4)", ok, fmt.Sprintf("%v", err))

	fmt.Println()
	if failures > 0 {
		fmt.Printf("%d check(s) FAILED\n", failures)
		os.Exit(1)
	}
	fmt.Println("all checks passed")
}
