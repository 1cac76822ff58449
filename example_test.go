package spiralfft_test

import (
	"fmt"
	"math"
	"math/cmplx"

	"spiralfft"
)

// ExampleNewPlan demonstrates the basic forward/inverse workflow.
func ExampleNewPlan() {
	plan, err := spiralfft.NewPlan(8, nil)
	if err != nil {
		panic(err)
	}
	defer plan.Close()

	// The DFT of the unit impulse is the all-ones vector.
	x := make([]complex128, 8)
	x[0] = 1
	y := make([]complex128, 8)
	plan.Forward(y, x)
	fmt.Printf("X[0]=%.0f X[5]=%.0f\n", real(y[0]), real(y[5]))

	// Inverse restores the impulse (up to rounding: |x[3]| is of order
	// 1e-17, so only its magnitude prints stably).
	plan.Inverse(x, y)
	fmt.Printf("x[0]=%.0f |x[3]|=%.0f\n", real(x[0]), cmplx.Abs(x[3]))
	// Output:
	// X[0]=1 X[5]=1
	// x[0]=1 |x[3]|=0
}

// ExamplePlan_Formula shows the SPL formula a parallel plan implements —
// the multicore Cooley-Tukey FFT derived by the rewriting system.
func ExamplePlan_Formula() {
	plan, err := spiralfft.NewPlan(256, &spiralfft.Options{Workers: 2})
	if err != nil {
		panic(err)
	}
	defer plan.Close()
	fmt.Println(plan.Formula())
	// Output:
	// ((L^32_16 ⊗ I_2) ⊗̄ I_4) · (I_2 ⊗∥ (DFT_16 ⊗ I_8)) · ((L^32_2 ⊗ I_2) ⊗̄ I_4) · (D_{16,16}[0/2] ⊕∥ D_{16,16}[1/2]) · (I_2 ⊗∥ (I_8 ⊗ DFT_16)) · (I_2 ⊗∥ L^128_8) · ((L^32_2 ⊗ I_2) ⊗̄ I_4)
}

// ExampleNewRealPlan transforms a real signal and reads a tone's bin.
func ExampleNewRealPlan() {
	const n = 64
	plan, err := spiralfft.NewRealPlan(n, nil)
	if err != nil {
		panic(err)
	}
	defer plan.Close()

	x := make([]float64, n)
	for j := range x {
		x[j] = math.Cos(2 * math.Pi * 5 * float64(j) / n) // tone in bin 5
	}
	spec := make([]complex128, n/2+1)
	plan.Forward(spec, x)
	fmt.Printf("|X[5]| = %.0f, |X[6]| = %.0f\n", cmplx.Abs(spec[5]), cmplx.Abs(spec[6]))
	// Output:
	// |X[5]| = 32, |X[6]| = 0
}

// ExampleWisdom persists a tuned factorization and reuses it.
func ExampleWisdom() {
	w := spiralfft.NewWisdom()
	if err := w.Import("256 (16 x 16)\n"); err != nil {
		panic(err)
	}
	plan, err := spiralfft.NewPlan(256, &spiralfft.Options{Wisdom: w})
	if err != nil {
		panic(err)
	}
	defer plan.Close()
	fmt.Println(plan.Tree())
	// Output:
	// (16 x 16)
}

// ExampleNewWHTPlan shows the Walsh-Hadamard transform, which is its own
// inverse up to the factor n.
func ExampleNewWHTPlan() {
	plan, err := spiralfft.NewWHTPlan(4, nil)
	if err != nil {
		panic(err)
	}
	defer plan.Close()
	x := []complex128{1, 2, 3, 4}
	y := make([]complex128, 4)
	plan.Transform(y, x)
	fmt.Printf("%.0f %.0f %.0f %.0f\n", real(y[0]), real(y[1]), real(y[2]), real(y[3]))
	// Output:
	// 10 -2 -4 0
}
