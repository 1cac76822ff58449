package cachesim

import (
	"strings"
	"testing"

	"spiralfft/internal/ir"
	"spiralfft/internal/rewrite"
	"spiralfft/internal/spl"
)

// lowerCT lowers the formula (14) program of split n = m·(n/m) — the
// program a parallel plan runs — for analysis.
func lowerCT(t *testing.T, n, m, p, mu int, sched ir.Schedule) *ir.Program {
	t.Helper()
	prog, err := ir.LowerCT(n, m, ir.CTConfig{P: p, Mu: mu, Schedule: sched})
	if err != nil {
		t.Fatalf("LowerCT(%d,%d,p=%d,µ=%d,%v): %v", n, m, p, mu, sched, err)
	}
	return prog
}

// TestMulticoreCTIsFalseSharingFree is experiment E9 (positive half): the
// program implementing formula (14) with block scheduling exhibits zero
// false sharing and perfect load balance, exactly as Definition 1 promises.
func TestMulticoreCTIsFalseSharingFree(t *testing.T) {
	for _, c := range []struct{ n, m, p, mu int }{
		{256, 16, 2, 4}, {1024, 32, 2, 4}, {256, 16, 4, 4}, {4096, 64, 4, 4}, {64, 8, 2, 4},
	} {
		rep := AnalyzeProgram(lowerCT(t, c.n, c.m, c.p, c.mu, ir.ScheduleBlock), c.mu)
		if !rep.FalseSharingFree() {
			t.Errorf("%+v: false sharing detected:\n%s", c, rep.String())
		}
		if rep.MaxImbalance() != 1.0 {
			t.Errorf("%+v: imbalance %v, want perfect 1.0", c, rep.MaxImbalance())
		}
	}
}

// TestCyclicScheduleFalseShares is experiment E9 (negative half): the
// naive cyclic parallelization of the same loops — the strategy the paper
// attributes to FFTW — interleaves processors within cache lines and false
// sharing appears as soon as µ > 1.
func TestCyclicScheduleFalseShares(t *testing.T) {
	rep := AnalyzeProgram(lowerCT(t, 256, 16, 2, 4, ir.ScheduleCyclic), 4)
	if rep.FalseSharingFree() {
		t.Fatalf("cyclic schedule reported false-sharing free:\n%s", rep.String())
	}
	// Stage 1 writes t in contiguous k-blocks per iteration (k=16 ≥ µ), so
	// the damage is concentrated in stage 2's column interleaving.
	if rep.Stages[1].FalseSharedLines == 0 {
		t.Errorf("expected stage-2 false sharing:\n%s", rep.String())
	}
}

func TestMuOneNeverFalseShares(t *testing.T) {
	// With single-element lines there is nothing to falsely share — even the
	// cyclic schedule is clean. (This is why the effect did not exist on
	// machines without multi-word cache lines.)
	rep := AnalyzeProgram(lowerCT(t, 256, 16, 2, 1, ir.ScheduleCyclic), 1)
	if !rep.FalseSharingFree() {
		t.Errorf("µ=1 cyclic plan false-shares:\n%s", rep.String())
	}
}

// TestFalseSharingGrowsWithMu pins the E9/A2 ablation counts: a cyclic
// program planned for µ = 1, analyzed under longer lines, false-shares every
// line of the stage-2 output (stage 1 writes contiguous blocks), so the
// count halves as the line doubles — n/µ lines, all of them shared.
func TestFalseSharingGrowsWithMu(t *testing.T) {
	for _, c := range []struct {
		n, m, p int
		want    map[int]int // µ → false-shared lines
	}{
		{256, 16, 2, map[int]int{1: 0, 2: 128, 4: 64, 8: 32}},
		{1024, 32, 2, map[int]int{1: 0, 2: 512, 4: 256, 8: 128}},
		{4096, 64, 4, map[int]int{1: 0, 2: 2048, 4: 1024, 8: 512}},
	} {
		prog := lowerCT(t, c.n, c.m, c.p, 1, ir.ScheduleCyclic)
		for _, mu := range []int{1, 2, 4, 8} {
			rep := AnalyzeProgram(prog, mu)
			if got := rep.TotalFalseSharedLines(); got != c.want[mu] {
				t.Errorf("n=%d p=%d µ=%d: %d false-shared lines, want %d\n%s",
					c.n, c.p, mu, got, c.want[mu], rep.String())
			}
			if rep.Stages[0].FalseSharedLines != 0 {
				t.Errorf("n=%d p=%d µ=%d: stage 1 false-shares", c.n, c.p, mu)
			}
		}
	}
}

// TestCyclicImbalance: dealing m = 16 stage-1 iterations round-robin to
// p = 3 workers gives 6/5/5 — max over mean = 6/(16/3) = 1.125.
func TestCyclicImbalance(t *testing.T) {
	rep := AnalyzeProgram(lowerCT(t, 256, 16, 3, 1, ir.ScheduleCyclic), 4)
	if got := rep.MaxImbalance(); got != 1.125 {
		t.Errorf("imbalance %v, want 1.125\n%s", got, rep.String())
	}
}

// TestDerivedFormulaPlanIsClean verifies E9 on the formula path: the
// program FromFormula renders from the rewriting system's output, stage by
// stage and before any loop merging, is false-sharing free and balanced —
// including the explicit ⊗̄ permutation stages.
func TestDerivedFormulaPlanIsClean(t *testing.T) {
	for _, c := range []struct{ m, n, p, mu int }{
		{8, 8, 2, 2}, {8, 8, 2, 4}, {16, 16, 4, 4},
	} {
		f, _, err := rewrite.DeriveMulticoreCT(c.m*c.n, c.m, c.p, c.mu)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := ir.FromFormula(f, c.p, c.mu)
		if err != nil {
			t.Fatal(err)
		}
		rep := AnalyzeProgram(prog, c.mu)
		if !rep.FalseSharingFree() {
			t.Errorf("%+v: derived formula program false-shares:\n%s", c, rep.String())
		}
		if rep.MaxImbalance() != 1.0 {
			t.Errorf("%+v: imbalance %v", c, rep.MaxImbalance())
		}
	}
}

// TestProductionIRIsFalseSharingFree extends E9 to the unified IR pipeline:
// the *production-lowered* program for formula (14) — the very program the
// public Plan executes, not a trace-only shadow — reports zero false-sharing
// events and perfect load balance for p ∈ {2,4}, µ = 4. This closes the gap
// where only the formula path was audited.
func TestProductionIRIsFalseSharingFree(t *testing.T) {
	for _, c := range []struct{ n, m, p, mu int }{
		{256, 16, 2, 4}, {1024, 32, 2, 4}, {256, 16, 4, 4}, {4096, 64, 4, 4},
	} {
		prog, err := ir.LowerCT(c.n, c.m, ir.CTConfig{P: c.p, Mu: c.mu})
		if err != nil {
			t.Fatalf("LowerCT(%+v): %v", c, err)
		}
		rep := AnalyzeProgram(prog, c.mu)
		if !rep.FalseSharingFree() {
			t.Errorf("%+v: production IR false-shares:\n%s", c, rep.String())
		}
		if rep.MaxImbalance() != 1.0 {
			t.Errorf("%+v: production IR imbalance %v, want perfect 1.0", c, rep.MaxImbalance())
		}
		if got := len(rep.Stages); got != 2 {
			t.Errorf("%+v: production IR has %d stages, want the two-stage schedule", c, got)
		}
	}
}

// TestFourStepIRIsFalseSharingFree audits the large-N tier's two-pass
// program the same way (Definition 1 at µ = 4): every panel of both passes
// is whole cache lines owned by one worker, forward and inverse, with and
// without the InPlace temp. When n1/µ and n2/µ split evenly over p the
// passes are also balanced. 3072 = 256·12 and 2^16 = 1024·64 widen their
// column ops past µ (ir.PanelWidth), inside the same µ-aligned worker
// ranges.
func TestFourStepIRIsFalseSharingFree(t *testing.T) {
	for _, c := range []struct{ n, n1, p int }{
		{4096, 64, 2}, {4096, 64, 4}, {3072, 256, 2}, {3072, 256, 4}, {1 << 16, 256, 2},
		{1 << 16, 1024, 2}, {1 << 16, 1024, 4},
	} {
		for _, cfg := range []ir.FourStepConfig{
			{P: c.p, Mu: 4}, {P: c.p, Mu: 4, Inverse: true}, {P: c.p, Mu: 4, InPlace: true},
		} {
			prog, err := ir.LowerFourStep(c.n, c.n1, cfg)
			if err != nil {
				t.Fatalf("LowerFourStep(%+v, %+v): %v", c, cfg, err)
			}
			rep := AnalyzeProgram(prog, 4)
			if rep.TotalFalseSharedLines() != 0 {
				t.Errorf("%+v %+v: four-step IR false-shares:\n%s", c, cfg, rep.String())
			}
			if got := len(rep.Stages); got != 2 {
				t.Errorf("%+v %+v: %d stages, want the two panel passes", c, cfg, got)
			}
			if n2 := c.n / c.n1; (c.n1/4)%c.p == 0 && (n2/4)%c.p == 0 && rep.MaxImbalance() != 1.0 {
				t.Errorf("%+v %+v: imbalance %v, want 1.0", c, cfg, rep.MaxImbalance())
			}
		}
	}
}

// TestFoldedFormulaIRIsClean verifies the same claim for the formula path
// lowered through the IR and folded: loop merging must not introduce
// sharing or imbalance.
func TestFoldedFormulaIRIsClean(t *testing.T) {
	for _, c := range []struct{ n, m, p, mu int }{
		{256, 16, 2, 4}, {1024, 32, 4, 4},
	} {
		f, _, err := rewrite.DeriveMulticoreCT(c.n, c.m, c.p, c.mu)
		if err != nil {
			t.Fatal(err)
		}
		raw, err := ir.FromFormula(f, c.p, c.mu)
		if err != nil {
			t.Fatal(err)
		}
		folded, err := ir.Fold(raw)
		if err != nil {
			t.Fatal(err)
		}
		rep := AnalyzeProgram(folded, c.mu)
		if !rep.FalseSharingFree() {
			t.Errorf("%+v: folded formula IR false-shares:\n%s", c, rep.String())
		}
		if rep.MaxImbalance() != 1.0 {
			t.Errorf("%+v: folded formula IR imbalance %v", c, rep.MaxImbalance())
		}
	}
}

func TestSequentialFallbackShowsImbalance(t *testing.T) {
	// A non-optimized formula lowered for 2 workers runs every factor on
	// worker 0: the simulator must expose the imbalance (work ratio = p).
	ct := spl.NewCompose(
		spl.NewTensor(spl.NewDFT(4), spl.NewIdentity(4)),
		spl.NewTwiddle(4, 4),
		spl.NewTensor(spl.NewIdentity(4), spl.NewDFT(4)),
		spl.NewStride(16, 4),
	)
	for _, p := range []int{2, 4} {
		prog, err := ir.FromFormula(ct, p, 4)
		if err != nil {
			t.Fatal(err)
		}
		rep := AnalyzeProgram(prog, 4)
		if got := rep.MaxImbalance(); got < float64(p)-0.1 {
			t.Errorf("p=%d: sequential fallback imbalance %v, want ≈ p\n%s", p, got, rep.String())
		}
	}
}

func TestReportString(t *testing.T) {
	rep := AnalyzeProgram(lowerCT(t, 256, 16, 2, 4, ir.ScheduleBlock), 4)
	s := rep.String()
	for _, want := range []string{"stage1", "stage2", "falseShared", "imbalance"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestAnalyzePanics(t *testing.T) {
	prog := lowerCT(t, 256, 16, 2, 4, ir.ScheduleBlock)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for µ=0")
		}
	}()
	AnalyzeProgram(prog, 0)
}

func TestSharedReadsAreNotFalseSharing(t *testing.T) {
	// In stage 1 each src element is read by exactly one worker under block
	// scheduling, but under cyclic scheduling the reads interleave; reads
	// alone must never count as false sharing. Construct a tracer where a
	// line is only read by both workers.
	tr := fakeTracer{}
	rep := Analyze(tr, 4)
	if rep.TotalFalseSharedLines() != 0 {
		t.Error("read-only shared line counted as false sharing")
	}
	if rep.Stages[0].SharedReadLines != 1 {
		t.Errorf("shared read lines = %d, want 1", rep.Stages[0].SharedReadLines)
	}
}

type fakeTracer struct{}

func (fakeTracer) Workers() int          { return 2 }
func (fakeTracer) Stages() int           { return 1 }
func (fakeTracer) StageName(int) string  { return "fake" }
func (fakeTracer) Work(_, w int) float64 { return 1 }
func (fakeTracer) NumBufs() int          { return 2 }
func (fakeTracer) BufLen(int) int        { return 16 }
func (fakeTracer) Trace(_, w int, visit func(buf, idx int, write bool)) {
	visit(0, 0, false)  // both workers read line 0 of buf 0
	visit(1, w*8, true) // each writes its own distant line of buf 1
}
