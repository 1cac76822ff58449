package search

import (
	"math/cmplx"
	"testing"
	"time"

	"spiralfft/internal/complexvec"
	"spiralfft/internal/cost"
	"spiralfft/internal/exec"
	"spiralfft/internal/smp"
)

func fourStepRelErr(want, got []complex128) float64 {
	maxDiff, maxMag := 0.0, 0.0
	for i := range want {
		if d := cmplx.Abs(got[i] - want[i]); d > maxDiff {
			maxDiff = d
		}
		if m := cmplx.Abs(want[i]); m > maxMag {
			maxMag = m
		}
	}
	if maxMag == 0 {
		return maxDiff
	}
	return maxDiff / maxMag
}

func TestBestFourStepChoosesValidSplit(t *testing.T) {
	n := 1 << 14
	tu := NewTuner(StrategyDP)
	tu.Timer = TimerConfig{MinTime: 50 * time.Microsecond}
	choice, err := tu.BestFourStep(n, 1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Exe == nil || choice.Prog == nil {
		t.Fatal("no executor returned")
	}
	if choice.N1 < 2 || n%choice.N1 != 0 || n/choice.N1 < 2 {
		t.Fatalf("invalid split n1=%d for n=%d", choice.N1, n)
	}
	if !choice.Measured {
		t.Error("expected a measured winner with no budget set")
	}
	x := complexvec.Random(n, 9)
	got := make([]complex128, n)
	want := make([]complex128, n)
	choice.Exe.Transform(got, x)
	seq := exec.MustNewSeq(exec.RadixTree(n))
	seq.Transform(want, x, nil)
	if re := fourStepRelErr(want, got); re > 1e-12 {
		t.Errorf("four-step winner rel error %g vs sequential tree", re)
	}
}

func TestBestFourStepParallelBackend(t *testing.T) {
	n, p := 1<<12, 2
	backend := smp.NewPool(p)
	defer backend.Close()
	tu := NewTuner(StrategyDP)
	tu.Timer = TimerConfig{MinTime: 50 * time.Microsecond}
	choice, err := tu.BestFourStep(n, p, 4, backend)
	if err != nil {
		t.Fatal(err)
	}
	if choice.N1%4 != 0 || (n/choice.N1)%4 != 0 {
		t.Fatalf("parallel split %d·%d not µ-aligned", choice.N1, n/choice.N1)
	}
	x := complexvec.Random(n, 10)
	got := make([]complex128, n)
	want := make([]complex128, n)
	choice.Exe.Transform(got, x)
	seq := exec.MustNewSeq(exec.RadixTree(n))
	seq.Transform(want, x, nil)
	if re := fourStepRelErr(want, got); re > 1e-12 {
		t.Errorf("parallel four-step winner rel error %g", re)
	}
}

// An exhausted budget must still yield a usable plan: the model's top-ranked
// candidate, built but unmeasured.
func TestBestFourStepExpiredBudgetFallsBack(t *testing.T) {
	n := 1 << 14
	tu := NewTuner(StrategyDP)
	tu.Budget = time.Nanosecond
	choice, err := tu.BestFourStep(n, 1, 4, nil)
	if err != nil {
		t.Fatal(err)
	}
	if choice.Exe == nil {
		t.Fatal("expired search returned no executor")
	}
	if choice.Measured {
		t.Error("expired search claims a measurement")
	}
	x := complexvec.Random(n, 11)
	got := make([]complex128, n)
	want := make([]complex128, n)
	choice.Exe.Transform(got, x)
	seq := exec.MustNewSeq(exec.RadixTree(n))
	seq.Transform(want, x, nil)
	if re := fourStepRelErr(want, got); re > 1e-12 {
		t.Errorf("fallback plan rel error %g", re)
	}
}

func TestBestFourStepRejectsBadArgs(t *testing.T) {
	tu := NewTuner(StrategyDP)
	if _, err := tu.BestFourStep(1<<14, 0, 4, nil); err == nil {
		t.Error("p=0 accepted")
	}
	// A prime size has no split at all.
	if _, err := tu.BestFourStep(13, 1, 4, nil); err == nil {
		t.Error("prime size accepted")
	}
}

// TestRankFourStepHeadGolden pins the head of the four-step ranking to the
// split n1 the planner picked before the ranking was unified, so the
// model-only plans of every tier-sized transform stay what they were.
func TestRankFourStepHeadGolden(t *testing.T) {
	golden := []struct{ n, p, mu, n1 int }{
		{1 << 16, 1, 2, 256}, {1 << 16, 1, 4, 256},
		{1 << 16, 2, 2, 256}, {1 << 16, 2, 4, 256},
		{1 << 16, 4, 2, 256}, {1 << 16, 4, 4, 256},
		{1 << 20, 1, 2, 16384}, {1 << 20, 1, 4, 16384},
		{1 << 20, 2, 2, 16384}, {1 << 20, 2, 4, 16384},
		{1 << 20, 4, 2, 16384}, {1 << 20, 4, 4, 16384},
		{1 << 22, 1, 2, 16384}, {1 << 22, 1, 4, 16384},
		{1 << 22, 2, 2, 16384}, {1 << 22, 2, 4, 16384},
		{1 << 22, 4, 2, 16384}, {1 << 22, 4, 4, 16384},
		{1 << 24, 1, 2, 4096}, {1 << 24, 1, 4, 4096},
		{1 << 24, 2, 2, 4096}, {1 << 24, 2, 4, 4096},
		{1 << 24, 4, 2, 4096}, {1 << 24, 4, 4, 4096},
		{3 << 20, 1, 2, 12288}, {3 << 20, 1, 4, 12288},
		{3 << 20, 2, 2, 12288}, {3 << 20, 2, 4, 12288},
		{3 << 20, 4, 2, 12288}, {3 << 20, 4, 4, 12288},
	}
	for _, g := range golden {
		ranked := RankFourStep(cost.Default(), g.n, g.p, g.mu)
		if len(ranked) == 0 {
			t.Fatalf("n=%d p=%d µ=%d: no admissible split", g.n, g.p, g.mu)
		}
		if h := ranked[0]; h.N1 != g.n1 {
			t.Errorf("n=%d p=%d µ=%d: head %d, want %d", g.n, g.p, g.mu, h.N1, g.n1)
		}
	}
}

// The ranking lists each admissible split n1 exactly once, in model order
// with ties to the larger n1.
func TestRankFourStepListsAdmissiblePairsInOrder(t *testing.T) {
	for _, c := range []struct{ n, p, mu int }{{1 << 12, 1, 4}, {1 << 12, 2, 4}, {3 * 5 * 64, 2, 2}, {36, 1, 4}} {
		ranked := RankFourStep(nil, c.n, c.p, c.mu)
		want := 0
		for n1 := 2; n1*2 <= c.n; n1++ {
			n2 := c.n / n1
			if c.n%n1 == 0 && (c.p == 1 || n1%c.mu == 0 && n2%c.mu == 0 && n1 >= c.p && n2 >= c.p) {
				want++
			}
		}
		if len(ranked) != want {
			t.Fatalf("%+v: %d candidates, want %d", c, len(ranked), want)
		}
		seen := map[int]bool{}
		for i, r := range ranked {
			if seen[r.N1] {
				t.Fatalf("%+v: %d listed twice", c, r.N1)
			}
			seen[r.N1] = true
			if i == 0 {
				continue
			}
			q := ranked[i-1]
			if q.Score > r.Score || q.Score == r.Score && q.N1 < r.N1 {
				t.Fatalf("%+v: %+v ranked ahead of %+v", c, q, r)
			}
		}
	}
	if r := RankFourStep(nil, 13, 1, 4); len(r) != 0 {
		t.Errorf("prime size ranked %d candidates", len(r))
	}
}
