package spiralfft

import (
	"context"
	"errors"
	"math/cmplx"
	"testing"

	"spiralfft/internal/complexvec"
	"spiralfft/internal/ir"
	"spiralfft/internal/search"
	"spiralfft/internal/smp"
)

// countTuners wraps newTuner for the test's duration and returns a function
// reporting how many candidates all tuners created since then have timed.
func countTuners(t *testing.T) func() int64 {
	t.Helper()
	var tuners []*search.Tuner
	orig := newTuner
	newTuner = func(opt Options) *search.Tuner {
		tu := orig(opt)
		tuners = append(tuners, tu)
		return tu
	}
	t.Cleanup(func() { newTuner = orig })
	return func() int64 {
		var n int64
		for _, tu := range tuners {
			n += tu.Stats().Measured
		}
		return n
	}
}

// The model-only planners never run a transform while planning, on any tier
// and in any family that searches, and so build the same plan every time.
func TestModelOnlyPlannersAreDeterministicAndTimeNothing(t *testing.T) {
	measured := countTuners(t)
	const n = 1 << 16
	for _, pl := range []Planner{PlannerFixed, PlannerEstimate} {
		for _, c := range []struct {
			name  string
			build func() (Transformer, string, error)
		}{
			{"four-step", func() (Transformer, string, error) {
				p, err := NewPlan(n, &Options{Workers: 2, Planner: pl, LargeNThreshold: n})
				if err != nil {
					return nil, "", err
				}
				if !p.IsFourStep() || !p.IsParallel() {
					return p, "", errors.New("plan left the parallel four-step tier: " + p.Tree())
				}
				return p, p.Tree(), nil
			}},
			{"tree", func() (Transformer, string, error) {
				p, err := NewPlan(4096, &Options{Workers: 2, Planner: pl})
				if err != nil {
					return nil, "", err
				}
				return p, p.Tree(), nil
			}},
			{"2d", func() (Transformer, string, error) {
				p, err := NewPlan2D(64, 128, &Options{Workers: 2, Planner: pl})
				if err != nil {
					return nil, "", err
				}
				return p, p.Program().String(), nil
			}},
			{"batch", func() (Transformer, string, error) {
				b, err := NewBatchPlan(1024, 4, &Options{Workers: 2, Planner: pl})
				if err != nil {
					return nil, "", err
				}
				return b, b.Program().String(), nil
			}},
		} {
			var first string
			for i := 0; i < 3; i++ {
				tr, shape, err := c.build()
				if tr != nil {
					tr.Close()
				}
				if err != nil {
					t.Fatalf("%s/%s: %v", pl, c.name, err)
				}
				if i == 0 {
					first = shape
				} else if shape != first {
					t.Fatalf("%s/%s: build %d planned\n%s\nafter\n%s", pl, c.name, i, shape, first)
				}
			}
			if got := measured(); got != 0 {
				t.Fatalf("%s/%s: planning timed %d candidates, want 0", pl, c.name, got)
			}
		}
	}
}

// The measuring planners ship the very four-step executor the search timed,
// on the plan's backend for a parallel plan and alone for a sequential one.
func TestPlannerMeasureAdoptsTimedFourStepExecutor(t *testing.T) {
	var choice search.FourStepChoice
	orig := bestFourStep
	bestFourStep = func(tu *search.Tuner, ctx context.Context, n, p, mu int, b smp.Backend, finish search.Finish) (search.FourStepChoice, error) {
		c, err := orig(tu, ctx, n, p, mu, b, finish)
		choice = c
		return c, err
	}
	defer func() { bestFourStep = orig }()
	const n = 1 << 12
	for _, workers := range []int{2, 1} {
		choice = search.FourStepChoice{}
		p, err := NewPlan(n, &Options{Workers: workers, Planner: PlannerMeasure, LargeNThreshold: n})
		if err != nil {
			t.Fatal(err)
		}
		if choice.Exe == nil || p.exe != choice.Exe {
			p.Close()
			t.Fatalf("workers=%d: plan runs executor %p, the search timed %p", workers, p.exe, choice.Exe)
		}
		if m, _ := p.Split(); m != choice.N1 || p.Program() != choice.Prog {
			t.Errorf("workers=%d: plan split %d, timed split %d", workers, m, choice.N1)
		}
		x := complexvec.Random(n, 12)
		got := make([]complex128, n)
		if err := p.Forward(got, x); err != nil {
			t.Fatal(err)
		}
		p.Close()
		if e := complexvec.RelError(got, refDFT(x)); e > 1e-9 {
			t.Errorf("workers=%d: adopted executor wrong by %g", workers, e)
		}
	}
}

// compile is the one path every constructor takes: a failing build fails
// it, installs nothing and leaves no backend open, whichever step failed.
func TestCompileFailsOnEitherExecutor(t *testing.T) {
	boom := errors.New("boom")
	fail := func(smp.Backend) (*ir.Executor, error) { return nil, boom }
	seq := whtStep(64, 1)
	live := smp.AggregateStats().Live
	for _, c := range []struct {
		name     string
		workers  int
		par, seq buildStep
	}{
		{"parallel", 2, fail, seq},
		{"sequential", 1, whtStep(64, 2), fail},
		{"sequential after a nil parallel step", 2, func(smp.Backend) (*ir.Executor, error) { return nil, nil }, fail},
	} {
		var core planCore
		if err := core.compile(Options{}, c.workers, c.par, c.seq); !errors.Is(err, boom) {
			t.Fatalf("failing %s build: err = %v", c.name, err)
		}
		if core.exe != nil || core.backend != nil {
			t.Fatalf("failing %s build left an executor installed", c.name)
		}
		if got := smp.AggregateStats().Live; got != live {
			t.Fatalf("failing %s build left %d pools open", c.name, got-live)
		}
	}
}

// whtStep is the build step of the WHT_n program for p workers.
func whtStep(n, p int) buildStep {
	return compiled(func() (*ir.Program, error) { return ir.LowerWHT(n, p, 4) })
}

// compile installs exactly one executor: the sequential step never runs
// once a parallel executor is adopted, and runs only when the parallel step
// returns nil. A backend-less executor from the parallel step (the
// sequential program a measuring planner timed) is adopted as is, with the
// backend closed.
func TestCompileBuildsOneExecutor(t *testing.T) {
	live := smp.AggregateStats().Live
	seqExe, err := whtStep(64, 1)(nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name      string
		par       buildStep
		seqCalls  int
		workers   int
		adoptsSeq bool
	}{
		{"parallel", whtStep(64, 2), 0, 2, false},
		{"nil parallel", func(smp.Backend) (*ir.Executor, error) { return nil, nil }, 1, 1, false},
		{"timed sequential", func(smp.Backend) (*ir.Executor, error) { return seqExe, nil }, 0, 1, true},
	} {
		calls := 0
		seq := func(b smp.Backend) (*ir.Executor, error) {
			calls++
			return whtStep(64, 1)(b)
		}
		var core planCore
		if err := core.compile(Options{}, 2, c.par, seq); err != nil {
			t.Fatal(err)
		}
		if calls != c.seqCalls {
			t.Errorf("%s: sequential step ran %d times, want %d", c.name, calls, c.seqCalls)
		}
		if core.exe.Workers() != c.workers || (core.backend != nil) != (c.workers > 1) {
			t.Errorf("%s: installed a %d-worker executor (backend %v)", c.name, core.exe.Workers(), core.backend)
		}
		if c.adoptsSeq && core.exe != seqExe {
			t.Errorf("%s: did not adopt the executor the step returned", c.name)
		}
		core.release()
		if got := smp.AggregateStats().Live; got != live {
			t.Fatalf("%s: %d pools left open", c.name, got-live)
		}
	}
}

// Regression: BatchPlan used to read its per-signal tree off a throwaway
// NewPlan, which took the four-step tier at n ≥ 2^22 and left no tree.
func TestBatchPlanAtFourStepSizes(t *testing.T) {
	if testing.Short() {
		t.Skip("allocates 2^22-element buffers")
	}
	const n = 1 << 22
	b, err := NewBatchPlan(n, 1, &Options{Planner: PlannerEstimate})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	x := make([]complex128, n)
	x[0] = 1
	y := make([]complex128, n)
	if err := b.Forward(y, x); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i += n / 1024 {
		if d := cmplx.Abs(y[i] - 1); d > 1e-9 {
			t.Fatalf("impulse response bin %d off by %g", i, d)
		}
	}
}
