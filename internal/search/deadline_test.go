package search

import (
	"context"
	"testing"
	"time"

	"spiralfft/internal/exec"
	"spiralfft/internal/smp"
)

// swapClock substitutes the measurement clock and restores it on cleanup.
func swapClock(t *testing.T, clock func() time.Time) {
	t.Helper()
	saved := now
	now = clock
	t.Cleanup(func() { now = saved })
}

// TestMeasureFrozenClockTerminates pins the calibration bounds: a clock that
// never advances (elapsed always 0, so MinTime is unreachable) must not grow
// the repetition count without bound — attempts are capped, reps are capped
// at MaxReps, and the reported time is clamped positive.
func TestMeasureFrozenClockTerminates(t *testing.T) {
	frozen := time.Unix(1000, 0)
	swapClock(t, func() time.Time { return frozen })

	calls := 0
	d := Measure(func() { calls++ }, TimerConfig{
		MinTime: time.Second, // unreachable on a frozen clock
		Repeats: 2,
		MaxReps: 64,
	})
	if d <= 0 {
		t.Errorf("Measure on frozen clock = %v, want positive", d)
	}
	// Calibration: 1 + 16 + 64 calls (growth ×16, capped at MaxReps, then the
	// reps >= MaxReps break), plus 2 rounds × 64. Anything far beyond that
	// means an unbounded loop.
	if calls > 300 {
		t.Errorf("frozen clock drove %d calls, want ≤ 300", calls)
	}
}

// TestMeasureCoarseClockCapsReps: a clock advancing far less than MinTime per
// read used to overflow the rep count; now it must stop at MaxReps.
func TestMeasureCoarseClockCapsReps(t *testing.T) {
	tick := time.Unix(1000, 0)
	swapClock(t, func() time.Time {
		tick = tick.Add(time.Nanosecond)
		return tick
	})
	calls := 0
	d := Measure(func() { calls++ }, TimerConfig{
		MinTime: time.Second,
		Repeats: 1,
		MaxReps: 128,
	})
	if d <= 0 {
		t.Errorf("Measure on coarse clock = %v, want positive", d)
	}
	if calls > 8*128+128 {
		t.Errorf("coarse clock drove %d calls past the attempt*reps bound", calls)
	}
}

// TestMeasureCtxPreCancelled: a cancelled context measures nothing and
// reports the unmeasured sentinel, which loses every tuning comparison.
func TestMeasureCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	calls := 0
	d := MeasureCtx(ctx, func() { calls++ }, fastTimer)
	if calls != 0 {
		t.Errorf("pre-cancelled MeasureCtx ran fn %d times", calls)
	}
	if d != unmeasured {
		t.Errorf("pre-cancelled MeasureCtx = %v, want the unmeasured sentinel", d)
	}
	if d < time.Hour {
		t.Errorf("unmeasured sentinel %v would beat real candidates", d)
	}
}

// TestMeasureCtxCancelMidway: cancelling from inside fn stops the rounds at
// the next boundary; the result is positive either way (a median of completed
// rounds, or the sentinel).
func TestMeasureCtxCancelMidway(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	calls := 0
	d := MeasureCtx(ctx, func() {
		calls++
		if calls == 3 {
			cancel()
		}
	}, TimerConfig{MinTime: time.Nanosecond, Repeats: 100, MaxReps: 1})
	if d <= 0 {
		t.Errorf("MeasureCtx = %v, want positive", d)
	}
	if calls > 10 {
		t.Errorf("cancellation ignored: fn ran %d times", calls)
	}
}

// TestTunerBudgetReturnsTreeInTime is the deadline-aware tuning acceptance
// test: a measured search that would take far longer than 10ms must come
// back in bounded time with a valid, parseable tree (the best found so far,
// or the radix fallback).
func TestTunerBudgetReturnsTreeInTime(t *testing.T) {
	const n = 1 << 13
	tu := NewTuner(StrategyDP)
	// ≥ 20ms per candidate (calibration + 3 rounds), so the 10ms budget
	// expires inside the very first measurement.
	tu.Timer = TimerConfig{MinTime: 5 * time.Millisecond, Repeats: 3}
	tu.Budget = 10 * time.Millisecond

	start := time.Now()
	r := tu.BestTree(n)
	elapsed := time.Since(start)

	if r.Tree == nil || r.Tree.N != n {
		t.Fatalf("budgeted search returned no tree for %d: %+v", n, r)
	}
	if err := r.Tree.Validate(); err != nil {
		t.Fatalf("budgeted tree invalid: %v", err)
	}
	if _, err := exec.ParseTree(r.Tree.String()); err != nil {
		t.Fatalf("budgeted tree %q not parseable: %v", r.Tree, err)
	}
	// Generous bound (race-mode CI): budget + a handful of measurement
	// rounds, nowhere near the full unbudgeted search.
	if elapsed > 5*time.Second {
		t.Errorf("10ms-budget search took %v", elapsed)
	}
	// Truncated results must not be memoized as the best tree for n.
	if _, ok := tu.memo[n]; ok {
		t.Error("budget-truncated result was memoized")
	}
}

// TestBestTreeCtxCancelledFallsBack: with a pre-cancelled context no
// candidate is measured, so the tuner returns the balanced radix tree and a
// later unbounded call searches afresh.
func TestBestTreeCtxCancelledFallsBack(t *testing.T) {
	tu := NewTuner(StrategyDP)
	tu.Timer = fastTimer
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	r := tu.BestTreeCtx(ctx, 256)
	if r.Tree == nil || r.Tree.String() != exec.RadixTree(256).String() {
		t.Fatalf("cancelled search returned %v, want the radix fallback %s", r.Tree, exec.RadixTree(256))
	}
	// Fresh call with real budget: a real search happens and is memoized.
	r2 := tu.BestTree(256)
	checkTree(t, r2.Tree, 256, "post-cancel search")
	if r2.Time <= 0 || r2.Time >= unmeasured {
		t.Errorf("post-cancel search has no measured time: %v", r2.Time)
	}
	if _, ok := tu.memo[256]; !ok {
		t.Error("completed search was not memoized")
	}
}

// TestTuneParallelCtxBudget: the parallel tuner under a tight deadline still
// returns a usable choice (at worst the sequential fallback), never an error.
func TestTuneParallelCtxBudget(t *testing.T) {
	tu := NewTuner(StrategyDP)
	tu.Timer = TimerConfig{MinTime: 5 * time.Millisecond, Repeats: 3}
	tu.Budget = 10 * time.Millisecond
	b := smp.NewSpawn(2)
	defer b.Close()
	start := time.Now()
	c, err := tu.TuneParallelCtx(context.Background(), 1<<12, 2, 4, b, nil)
	if err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > 5*time.Second {
		t.Errorf("budgeted parallel tuning took %v", time.Since(start))
	}
	if c.Tree == nil || c.Tree.N != 1<<12 {
		t.Fatalf("no sequential tree in budgeted choice: %+v", c)
	}
	if _, err := exec.ParseTree(c.Tree.String()); err != nil {
		t.Errorf("choice tree %q not parseable: %v", c.Tree, err)
	}
}

// TestExpiredSearchDoesNotRecurse: once the deadline has passed, a size not
// yet searched gets the radix tree at once. Searching it anyway enumerated
// every split's sub-searches, none memoized under an expired deadline, so
// the work grew as 3^log2(n) (1.6 million searches at 2^14).
func TestExpiredSearchDoesNotRecurse(t *testing.T) {
	for _, s := range []Strategy{StrategyDP, StrategyEstimate} {
		tu := NewTuner(s)
		tu.Budget = time.Nanosecond
		r := tu.BestTree(1 << 14)
		if r.Tree.String() != exec.RadixTree(1<<14).String() {
			t.Errorf("%s: expired search returned %s, want the radix tree", s, r.Tree)
		}
		if st := tu.Stats(); st.Searches != 0 || st.Considered != 0 {
			t.Errorf("%s: expired search did %d searches over %d candidates", s, st.Searches, st.Considered)
		}
	}
}
