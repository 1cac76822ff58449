package spiralfft

import (
	"math/cmplx"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"spiralfft/internal/complexvec"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/search"
	"spiralfft/internal/smp"
	"spiralfft/internal/twiddle"
)

const tol = 1e-10

func refDFT(x []complex128) []complex128 {
	n := len(x)
	y := make([]complex128, n)
	for k := 0; k < n; k++ {
		for j := 0; j < n; j++ {
			y[k] += twiddle.Omega(n, k*j) * x[j]
		}
	}
	return y
}

func TestForwardMatchesDefinition(t *testing.T) {
	for _, n := range []int{1, 2, 8, 64, 100, 256, 1024, 60} {
		p, err := NewPlan(n, nil)
		if err != nil {
			t.Fatalf("NewPlan(%d): %v", n, err)
		}
		x := complexvec.Random(n, uint64(n))
		got := make([]complex128, n)
		if err := p.Forward(got, x); err != nil {
			t.Fatal(err)
		}
		if e := complexvec.RelError(got, refDFT(x)); e > tol {
			t.Errorf("n=%d: rel error %g", n, e)
		}
		p.Close()
	}
}

func TestForwardInverseRoundtrip(t *testing.T) {
	for _, opts := range []*Options{
		nil,
		{Workers: 2},
		{Workers: 2, Backend: BackendSpawn},
		{Workers: 2, Planner: PlannerEstimate},
	} {
		n := 256
		p, err := NewPlan(n, opts)
		if err != nil {
			t.Fatal(err)
		}
		x := complexvec.Random(n, 5)
		freq := make([]complex128, n)
		back := make([]complex128, n)
		if err := p.Forward(freq, x); err != nil {
			t.Fatal(err)
		}
		if err := p.Inverse(back, freq); err != nil {
			t.Fatal(err)
		}
		if e := complexvec.RelError(back, x); e > tol {
			t.Errorf("opts %+v: roundtrip error %g", opts, e)
		}
		// Inverse must not clobber its input.
		if err := p.Inverse(back, freq); err != nil {
			t.Fatal(err)
		}
		if e := complexvec.RelError(back, x); e > tol {
			t.Errorf("opts %+v: second inverse differs: %g", opts, e)
		}
		p.Close()
	}
}

func TestParallelPlanUsedWhenApplicable(t *testing.T) {
	p, err := NewPlan(1024, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !p.IsParallel() || p.Workers() != 2 {
		t.Errorf("expected a 2-worker parallel plan, got parallel=%v workers=%d", p.IsParallel(), p.Workers())
	}
	m, k := p.Split()
	if m*k != 1024 || m%8 != 0 || k%8 != 0 {
		t.Errorf("split %d·%d violates pµ-divisibility", m, k)
	}
	x := complexvec.Random(1024, 7)
	got := make([]complex128, 1024)
	if err := p.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	if e := complexvec.RelError(got, refDFT(x)); e > tol {
		t.Errorf("parallel forward: rel error %g", e)
	}
}

func TestFallsBackToSequentialWhenNoSplit(t *testing.T) {
	// 2^5 = 32 has no split with both factors divisible by pµ = 8.
	p, err := NewPlan(32, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.IsParallel() {
		t.Error("expected sequential fallback for n=32, p=2, µ=4")
	}
	if m, k := p.Split(); m != 0 || k != 0 {
		t.Errorf("Split = %d,%d for sequential plan", m, k)
	}
	x := complexvec.Random(32, 3)
	got := make([]complex128, 32)
	if err := p.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	if e := complexvec.RelError(got, refDFT(x)); e > tol {
		t.Errorf("fallback forward: rel error %g", e)
	}
}

func TestPlannerVariants(t *testing.T) {
	for _, pl := range []Planner{PlannerFixed, PlannerEstimate, PlannerExhaustive} {
		p, err := NewPlan(64, &Options{Planner: pl})
		if err != nil {
			t.Fatalf("%v: %v", pl, err)
		}
		x := complexvec.Random(64, 9)
		got := make([]complex128, 64)
		if err := p.Forward(got, x); err != nil {
			t.Fatal(err)
		}
		if e := complexvec.RelError(got, refDFT(x)); e > tol {
			t.Errorf("planner %v: rel error %g", pl, e)
		}
		p.Close()
	}
}

func TestPlannerMeasureDecidesParallelism(t *testing.T) {
	// Whatever PlannerMeasure decides must be correct; at n=2^14 on any
	// machine the decision itself is allowed to go either way.
	p, err := NewPlan(1<<14, &Options{Workers: 2, Planner: PlannerMeasure})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x := complexvec.Random(1<<14, 11)
	got := make([]complex128, 1<<14)
	if err := p.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	if e := complexvec.RelError(got, refDFT(x)); e > 1e-9 {
		t.Errorf("measured plan: rel error %g", e)
	}
}

// TestPlannerMeasureAdoptsTimedExecutor: the measuring planner must run the
// very executor TuneParallel timed on the plan's backend, never a rebuilt
// twin of it. Whether parallel wins is up to the host, so the check runs at
// the first size where it does.
func TestPlannerMeasureAdoptsTimedExecutor(t *testing.T) {
	var choice search.ParallelChoice
	orig := tuneParallel
	tuneParallel = func(tu *search.Tuner, n, p, mu int, b smp.Backend, finish search.Finish) (search.ParallelChoice, error) {
		c, err := orig(tu, n, p, mu, b, finish)
		choice = c
		return c, err
	}
	defer func() { tuneParallel = orig }()
	if measureUntilParallelWins(func() bool { return tryPlannerMeasureAdoptsTimedExecutor(t, &choice) }) {
		return
	}
	t.Skip("the sequential plan won at every size on this host; no parallel executor was adopted")
}

// tryPlannerMeasureAdoptsTimedExecutor plans each size under
// PlannerMeasure and checks the plan runs the executor TuneParallel timed;
// it reports whether some size adopted a parallel executor (and checked it).
func tryPlannerMeasureAdoptsTimedExecutor(t *testing.T, choice *search.ParallelChoice) bool {
	t.Helper()
	for _, n := range []int{1 << 14, 1 << 15, 1 << 13} {
		*choice = search.ParallelChoice{}
		p, err := NewPlan(n, &Options{Workers: 2, Planner: PlannerMeasure})
		if err != nil {
			t.Fatal(err)
		}
		if exe := p.exe; exe != timedWinner(*choice) {
			p.Close()
			t.Fatalf("n=%d: plan runs executor %p, TuneParallel timed %p", n, exe, timedWinner(*choice))
		}
		if !choice.UsedParallel() {
			p.Close()
			continue
		}
		if m, _ := p.Split(); m != choice.Split || p.Program() != choice.Exec.Program() {
			t.Errorf("n=%d: plan split %d, tuned split %d", n, m, choice.Split)
		}
		x := complexvec.Random(n, 11)
		got := make([]complex128, n)
		if err := p.Forward(got, x); err != nil {
			t.Fatal(err)
		}
		if e := complexvec.RelError(got, refDFT(x)); e > 1e-9 {
			t.Errorf("n=%d: adopted executor wrong by %g", n, e)
		}
		p.Close()
		return true
	}
	return false
}

// measureUntilParallelWins runs round, a sweep of measured plans that
// reports whether some size adopted a parallel executor, until one does or
// the rounds run past a 30 s deadline. On a time-shared host (or while other
// packages' tests run) the sequential program can win every size of one
// round; each new plan re-tunes, so a later round measures afresh.
func measureUntilParallelWins(round func() bool) bool {
	deadline := time.Now().Add(30 * time.Second)
	for i := 0; i == 0 || time.Now().Before(deadline); i++ {
		if i > 0 {
			time.Sleep(200 * time.Millisecond)
		}
		if round() {
			return true
		}
	}
	return false
}

// timedWinner is the executor whose runtime decided a ParallelChoice.
func timedWinner(c search.ParallelChoice) *ir.Executor {
	if c.UsedParallel() {
		return c.Exec
	}
	return c.SeqExec
}

// When the measuring planner keeps a size sequential, the plan adopts the
// sequential executor TuneParallel timed (it builds no second one) and
// records that tree under the (n, 1) wisdom slot. The sequential win is
// forced by dropping the parallel executors from the real search's choice,
// as TuneParallel does when the sequential plan is faster.
func TestPlannerMeasureAdoptsTimedSequentialExecutor(t *testing.T) {
	var choice search.ParallelChoice
	orig := tuneParallel
	tuneParallel = func(tu *search.Tuner, n, p, mu int, b smp.Backend, finish search.Finish) (search.ParallelChoice, error) {
		c, err := orig(tu, n, p, mu, b, finish)
		c.Exec, c.Split, c.Left, c.Right = nil, 0, nil, nil
		choice = c
		return c, err
	}
	defer func() { tuneParallel = orig }()
	const n = 1 << 10
	w := NewWisdom()
	live := smp.AggregateStats().Live
	p, err := NewPlan(n, &Options{Workers: 2, Planner: PlannerMeasure, Wisdom: w})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if choice.SeqExec == nil || p.exe != choice.SeqExec {
		t.Fatalf("plan runs executor %p, TuneParallel timed %p", p.exe, choice.SeqExec)
	}
	if p.IsParallel() || p.Workers() != 1 || p.Tree() != choice.Tree.String() {
		t.Errorf("plan reports parallel=%v workers=%d tree %s, want the sequential %s",
			p.IsParallel(), p.Workers(), p.Tree(), choice.Tree)
	}
	if got := smp.AggregateStats().Live; got != live {
		t.Errorf("sequential plan left %d pools open", got-live)
	}
	if tr, ok := w.Lookup(n, 1); !ok || tr.String() != choice.Tree.String() {
		t.Errorf("wisdom (n, 1) holds %v, want the timed tree %s", tr, choice.Tree)
	}
	x := complexvec.Random(n, 13)
	got := make([]complex128, n)
	if err := p.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	if e := complexvec.RelError(got, refDFT(x)); e > 1e-9 {
		t.Errorf("adopted sequential executor wrong by %g", e)
	}
}

func TestInPlaceTransforms(t *testing.T) {
	p, err := NewPlan(256, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	x := complexvec.Random(256, 13)
	want := refDFT(x)
	buf := complexvec.Clone(x)
	if err := p.Forward(buf, buf); err != nil {
		t.Fatal(err)
	}
	if e := complexvec.RelError(buf, want); e > tol {
		t.Errorf("in-place forward: %g", e)
	}
	if err := p.Inverse(buf, buf); err != nil {
		t.Fatal(err)
	}
	if e := complexvec.RelError(buf, x); e > tol {
		t.Errorf("in-place inverse: %g", e)
	}
}

func TestErrors(t *testing.T) {
	if _, err := NewPlan(0, nil); err == nil {
		t.Error("accepted n=0")
	}
	if _, err := NewPlan(8, &Options{Workers: -1}); err == nil {
		t.Error("accepted negative workers")
	}
	if _, err := NewPlan(8, &Options{CacheLineComplex: -1}); err == nil {
		t.Error("accepted negative µ")
	}
	p, err := NewPlan(8, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if err := p.Forward(make([]complex128, 4), make([]complex128, 8)); err == nil {
		t.Error("accepted short dst")
	}
	if err := p.Inverse(make([]complex128, 8), make([]complex128, 4)); err == nil {
		t.Error("accepted short src")
	}
}

func TestTreeAndFormulaRendering(t *testing.T) {
	p, err := NewPlan(256, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if !strings.Contains(p.Tree(), "parallel p=2") {
		t.Errorf("Tree() = %q", p.Tree())
	}
	f := p.Formula()
	for _, want := range []string{"⊗∥", "⊗̄", "DFT_16", "⊕∥"} {
		if !strings.Contains(f, want) {
			t.Errorf("Formula() = %q missing %q", f, want)
		}
	}
	d := p.Derivation()
	if !strings.Contains(d, "rule(7)") {
		t.Errorf("Derivation missing rules:\n%s", d)
	}
	// Sequential plan renders the Cooley-Tukey formula.
	s, err := NewPlan(64, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if !strings.Contains(s.Formula(), "DFT_") || s.Derivation() != "" {
		t.Errorf("sequential Formula/Derivation wrong: %q / %q", s.Formula(), s.Derivation())
	}
	if !strings.Contains(s.Tree(), "x") && s.Tree() != "64" {
		t.Errorf("sequential Tree() = %q", s.Tree())
	}
}

// TestPlanFormulaNamesProgramSizes: every DFT_k in a plan's Formula() is a
// transform size its program runs (a codelet tree node), for a one-codelet
// plan, a sequential split, a parallel plan and a four-step plan.
func TestPlanFormulaNamesProgramSizes(t *testing.T) {
	dft := regexp.MustCompile(`DFT_(\d+)`)
	for _, c := range []struct {
		name string
		n    int
		opt  *Options
		tree string // prefix of Tree(): the plan is of the named kind
	}{
		{"leaf", 256, nil, "256"},
		{"split", 1024, nil, "("},
		{"parallel", 256, &Options{Workers: 2}, "parallel"},
		{"four-step", 1 << 13, &Options{Workers: 2, LargeNThreshold: 1 << 13}, "four-step"},
	} {
		p, err := NewPlan(c.n, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		if !strings.HasPrefix(p.Tree(), c.tree) {
			t.Fatalf("%s: plan tree %s is not a %s plan", c.name, p.Tree(), c.name)
		}
		runs := map[int]bool{}
		var walk func(t *exec.Tree)
		walk = func(t *exec.Tree) {
			runs[t.N] = true
			if !t.Leaf {
				walk(t.Left)
				walk(t.Right)
			}
		}
		for _, r := range p.Program().Regions() {
			for _, ops := range r.Workers {
				for _, op := range ops {
					switch op := op.(type) {
					case ir.CodeletCall:
						walk(op.Tree)
					case ir.CodeletGenCall:
						walk(op.Tree)
					}
				}
			}
		}
		f := p.Formula()
		names := dft.FindAllStringSubmatch(f, -1)
		if len(names) == 0 {
			t.Errorf("%s: Formula() = %q names no DFT", c.name, f)
		}
		for _, m := range names {
			if k, _ := strconv.Atoi(m[1]); !runs[k] {
				t.Errorf("%s: Formula() = %q names DFT_%d, which the program (tree %s) never runs", c.name, f, k, p.Tree())
			}
		}
		p.Close()
	}
}

func TestCloseIdempotentAndStringers(t *testing.T) {
	p, err := NewPlan(256, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	p.Close()
	if BackendPool.String() != "pool" || BackendSpawn.String() != "spawn" {
		t.Error("Backend.String wrong")
	}
	if PlannerFixed.String() != "fixed" || PlannerMeasure.String() != "measure" {
		t.Error("Planner.String wrong")
	}
}

func TestOneShotHelpers(t *testing.T) {
	x := complexvec.Random(128, 1)
	y, err := Forward(x)
	if err != nil {
		t.Fatal(err)
	}
	if e := complexvec.RelError(y, refDFT(x)); e > tol {
		t.Errorf("Forward helper: %g", e)
	}
	back, err := Inverse(y)
	if err != nil {
		t.Fatal(err)
	}
	if e := complexvec.RelError(back, x); e > tol {
		t.Errorf("Inverse helper: %g", e)
	}
	if _, err := Forward(nil); err == nil {
		t.Error("Forward(nil) accepted")
	}
}

// Property: Parseval for the public API — the unitary-inverse convention
// means ‖Forward(x)‖² = n·‖x‖².
func TestQuickParseval(t *testing.T) {
	p, err := NewPlan(512, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f := func(seed uint64) bool {
		x := complexvec.Random(512, seed)
		y := make([]complex128, 512)
		if err := p.Forward(y, x); err != nil {
			return false
		}
		a := complexvec.L2Norm(y)
		b := complexvec.L2Norm(x)
		d := a*a - 512*b*b
		if d < 0 {
			d = -d
		}
		return d <= 1e-8*(1+a*a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

// Property: linearity of the planned transform.
func TestQuickLinearity(t *testing.T) {
	p, err := NewPlan(256, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	f := func(seedX, seedY uint64) bool {
		x := complexvec.Random(256, seedX)
		y := complexvec.Random(256, seedY)
		z := make([]complex128, 256)
		for i := range z {
			z[i] = x[i] + 2i*y[i]
		}
		fx := make([]complex128, 256)
		fy := make([]complex128, 256)
		fz := make([]complex128, 256)
		p.Forward(fx, x)
		p.Forward(fy, y)
		p.Forward(fz, z)
		for i := range fz {
			if cmplx.Abs(fz[i]-(fx[i]+2i*fy[i])) > 1e-8*(1+cmplx.Abs(fz[i])) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}
