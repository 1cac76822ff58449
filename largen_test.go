package spiralfft_test

import (
	"math"
	"math/cmplx"
	"testing"

	fft "spiralfft"
	"spiralfft/internal/complexvec"
)

// Large-N correctness without an O(N²) oracle: at the sizes the four-step
// tier serves, neither the naive DFT nor a per-element reference table is
// affordable, so correctness rests on analytic identities — impulse response
// (DFT δ = all-ones), single-tone response (DFT of exp(2πi·f·j/n) is n·δ_f),
// Parseval (Σ|X|² = n·Σ|x|² for the unnormalized Forward), and the
// Forward→Inverse round trip. Each test forces the tier via
// Options.LargeNThreshold so the identities exercise the four-step schedule
// specifically. The default PlannerFixed, like PlannerEstimate, plans
// deterministically and runs no transform, so planning stays fast.

// largeNPlan builds a default-planner plan with the four-step tier forced on
// at size n, failing the test if the tier did not engage.
func largeNPlan(t *testing.T, n int) *fft.Plan {
	t.Helper()
	p, err := fft.NewPlan(n, &fft.Options{LargeNThreshold: n})
	if err != nil {
		t.Fatal(err)
	}
	if !p.IsFourStep() {
		p.Close()
		t.Fatalf("n=%d plan did not take the four-step tier: %s", n, p.Tree())
	}
	return p
}

// largeNSizes returns the sizes under test: 2^20 always, 2^22 unless -short.
func largeNSizes(t *testing.T) []int {
	if testing.Short() {
		return []int{1 << 20}
	}
	return []int{1 << 20, 1 << 22}
}

func TestLargeNImpulse(t *testing.T) {
	for _, n := range largeNSizes(t) {
		p := largeNPlan(t, n)
		x := make([]complex128, n)
		x[0] = 1
		y := make([]complex128, n)
		if err := p.Forward(y, x); err != nil {
			p.Close()
			t.Fatal(err)
		}
		worst := 0.0
		for _, v := range y {
			if d := cmplx.Abs(v - 1); d > worst {
				worst = d
			}
		}
		p.Close()
		if worst > 1e-9 {
			t.Errorf("n=%d: impulse response deviates from all-ones by %g", n, worst)
		}
	}
}

func TestLargeNSingleTone(t *testing.T) {
	for _, n := range largeNSizes(t) {
		p := largeNPlan(t, n)
		// A pure tone at a bin that is not aligned with either four-step
		// factor, so its energy crosses both transposes.
		f := n/3 + 1
		x := make([]complex128, n)
		for j := range x {
			s, c := math.Sincos(2 * math.Pi * float64(f) * float64(j) / float64(n))
			x[j] = complex(c, s)
		}
		y := make([]complex128, n)
		if err := p.Forward(y, x); err != nil {
			p.Close()
			t.Fatal(err)
		}
		p.Close()
		if d := cmplx.Abs(y[f] - complex(float64(n), 0)); d > 1e-6*float64(n) {
			t.Errorf("n=%d: tone bin %d off by %g", n, f, d)
		}
		// Every other bin is zero; sample a spread instead of all N.
		for i := 1; i < 4096; i++ {
			bin := (f + i*(n/4096)) % n
			if bin == f {
				continue
			}
			if d := cmplx.Abs(y[bin]); d > 1e-6*float64(n) {
				t.Errorf("n=%d: leakage %g at bin %d", n, d, bin)
			}
		}
	}
}

func TestLargeNParseval(t *testing.T) {
	for _, n := range largeNSizes(t) {
		p := largeNPlan(t, n)
		x := complexvec.Random(n, 21)
		y := make([]complex128, n)
		if err := p.Forward(y, x); err != nil {
			p.Close()
			t.Fatal(err)
		}
		p.Close()
		var ex, ey float64
		for i := range x {
			ex += real(x[i])*real(x[i]) + imag(x[i])*imag(x[i])
			ey += real(y[i])*real(y[i]) + imag(y[i])*imag(y[i])
		}
		if rel := math.Abs(ey-float64(n)*ex) / (float64(n) * ex); rel > 1e-10 {
			t.Errorf("n=%d: Parseval violated, relative energy error %g", n, rel)
		}
	}
}

func TestLargeNRoundTrip(t *testing.T) {
	for _, n := range largeNSizes(t) {
		p := largeNPlan(t, n)
		x := complexvec.Random(n, 22)
		y := make([]complex128, n)
		z := make([]complex128, n)
		if err := p.Forward(y, x); err != nil {
			p.Close()
			t.Fatal(err)
		}
		if err := p.Inverse(z, y); err != nil {
			p.Close()
			t.Fatal(err)
		}
		p.Close()
		if e := complexvec.RelError(z, x); e > 1e-9 {
			t.Errorf("n=%d: Forward→Inverse round-trip error %g", n, e)
		}
	}
}

// The tier agrees with the tree planner where both are affordable: at a
// forced moderate size the four-step Forward matches the ordinary plan to
// rounding (generated twiddle rows differ from tabulated ones in the last
// ulp, so bit identity is not required).
func TestLargeNMatchesTreePlanner(t *testing.T) {
	const n = 1 << 16
	fs := largeNPlan(t, n)
	defer fs.Close()
	tree, err := fft.NewPlan(n, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer tree.Close()
	if tree.IsFourStep() {
		t.Fatalf("default plan at n=%d unexpectedly took the large-N tier", n)
	}
	x := complexvec.Random(n, 23)
	got := make([]complex128, n)
	want := make([]complex128, n)
	if err := fs.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	if err := tree.Forward(want, x); err != nil {
		t.Fatal(err)
	}
	if e := complexvec.RelError(got, want); e > 1e-12 {
		t.Errorf("four-step vs tree planner relative error %g", e)
	}
}

// A negative threshold disables the tier outright.
func TestLargeNThresholdDisable(t *testing.T) {
	p, err := fft.NewPlan(1<<20, &fft.Options{LargeNThreshold: -1})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.IsFourStep() {
		t.Error("LargeNThreshold=-1 still engaged the four-step tier")
	}
}

// Parallel four-step plans agree with sequential ones and report their shape.
func TestLargeNParallelPlan(t *testing.T) {
	const n = 1 << 18
	seq := largeNPlan(t, n)
	defer seq.Close()
	par, err := fft.NewPlan(n, &fft.Options{Workers: 2, LargeNThreshold: n})
	if err != nil {
		t.Fatal(err)
	}
	defer par.Close()
	if !par.IsFourStep() {
		t.Fatalf("parallel plan did not take the four-step tier: %s", par.Tree())
	}
	if !par.IsParallel() {
		t.Skip("no admissible parallel four-step split on this size")
	}
	if par.Workers() != 2 {
		t.Errorf("Workers() = %d, want 2", par.Workers())
	}
	x := complexvec.Random(n, 24)
	got := make([]complex128, n)
	want := make([]complex128, n)
	if err := par.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	if err := seq.Forward(want, x); err != nil {
		t.Fatal(err)
	}
	// Same schedule, different worker partition only — the outputs of the
	// same split are bit-identical; across possibly different tuned splits
	// rounding-level agreement is the contract.
	if e := complexvec.RelError(got, want); e > 1e-12 {
		t.Errorf("parallel vs sequential four-step relative error %g", e)
	}
}
