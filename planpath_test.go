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
		adopted := p.seqExe
		if workers > 1 {
			adopted = p.exe
		}
		if choice.Exe == nil || adopted != choice.Exe {
			p.Close()
			t.Fatalf("workers=%d: plan runs executor %p, the search timed %p", workers, adopted, choice.Exe)
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

// compile is the one path every constructor takes: a failing parallel build
// fails it with the backend closed, and so does a failing sequential build
// after the parallel executor was adopted.
func TestCompileFailsOnEitherExecutor(t *testing.T) {
	boom := errors.New("boom")
	seq := compiled(ir.LowerWHT(64, 1, 4))
	par := compiled(ir.LowerWHT(64, 2, 4))
	live := smp.AggregateStats().Live
	for _, c := range []struct {
		name     string
		par, seq buildStep
	}{
		{"parallel", compiled(nil, boom), seq},
		{"sequential", par, compiled(nil, boom)},
	} {
		var core planCore
		if err := core.compile(Options{}, 2, c.par, c.seq); !errors.Is(err, boom) {
			t.Fatalf("failing %s build: err = %v", c.name, err)
		}
		if core.exe != nil || core.backend != nil || core.seqExe != nil {
			t.Fatalf("failing %s build left executors installed", c.name)
		}
		if got := smp.AggregateStats().Live; got != live {
			t.Fatalf("failing %s build left %d pools open", c.name, got-live)
		}
	}
	var core planCore
	if err := core.compile(Options{}, 2, par, seq); err != nil {
		t.Fatal(err)
	}
	defer core.release()
	if core.exe == nil || core.exe.Workers() != 2 || core.seqExe == nil {
		t.Fatal("successful compile did not install both executors")
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
