package search

import (
	"testing"
	"time"

	"spiralfft/internal/complexvec"
	"spiralfft/internal/exec"
	"spiralfft/internal/metrics"
	"spiralfft/internal/smp"
	"spiralfft/internal/twiddle"
)

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

func checkTree(t *testing.T, tr *exec.Tree, n int, what string) {
	t.Helper()
	if tr == nil || tr.N != n {
		t.Fatalf("%s: bad tree for %d: %v", what, n, tr)
	}
	if err := tr.Validate(); err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	s, err := exec.NewSeq(tr)
	if err != nil {
		t.Fatalf("%s: %v", what, err)
	}
	x := complexvec.Random(n, uint64(n))
	got := make([]complex128, n)
	s.Transform(got, x, nil)
	if e := complexvec.RelError(got, refDFT(x)); e > 1e-10 {
		t.Errorf("%s: tuned tree wrong by %g", what, e)
	}
}

// fastTimer keeps tests quick.
var fastTimer = TimerConfig{MinTime: 20 * time.Microsecond, Repeats: 1}

func TestEstimateStrategyProducesValidTrees(t *testing.T) {
	tu := NewTuner(StrategyEstimate)
	for _, n := range []int{2, 8, 64, 128, 256, 60, 100, 31} {
		r := tu.BestTree(n)
		checkTree(t, r.Tree, n, "estimate")
		if r.Candidates < 1 {
			t.Errorf("n=%d: candidates %d", n, r.Candidates)
		}
	}
}

func TestDPStrategyMemoizesAndIsCorrect(t *testing.T) {
	tu := NewTuner(StrategyDP)
	tu.Timer = fastTimer
	r1 := tu.BestTree(256)
	checkTree(t, r1.Tree, 256, "dp")
	if r1.Time <= 0 {
		t.Error("dp result has no measured time")
	}
	r2 := tu.BestTree(256)
	if r1.Tree != r2.Tree {
		t.Error("memoization did not return the same result")
	}
}

func TestExhaustiveStrategySmallSize(t *testing.T) {
	tu := NewTuner(StrategyExhaustive)
	tu.Timer = fastTimer
	r := tu.BestTree(64)
	checkTree(t, r.Tree, 64, "exhaustive")
	// 64 admits the leaf-free splits 2·32, 4·16, 8·8, 16·4, 32·2 recursively;
	// candidate count must exceed the DP candidate count (6 top splits).
	if r.Candidates < 10 {
		t.Errorf("exhaustive candidates = %d, suspiciously few", r.Candidates)
	}
}

func TestRandomStrategy(t *testing.T) {
	tu := NewTuner(StrategyRandom)
	tu.Timer = fastTimer
	tu.RandomSamples = 8
	r := tu.BestTree(128)
	checkTree(t, r.Tree, 128, "random")
	if r.Candidates != 8 {
		t.Errorf("candidates = %d", r.Candidates)
	}
}

func TestModelCostSanity(t *testing.T) {
	// Cost must grow with size and penalize naive leaves heavily.
	if ModelCost(exec.LeafTree(8)) >= ModelCost(exec.LeafTree(32)) {
		t.Error("cost not monotone in codelet size")
	}
	naive := ModelCost(exec.LeafTree(49)) // 49 has no unrolled codelet: leaf means naive O(n²)
	split := ModelCost(exec.SplitTree(exec.LeafTree(7), exec.LeafTree(7)))
	if split >= naive {
		t.Errorf("split cost %v not cheaper than naive %v", split, naive)
	}
}

func TestMeasureReturnsPositive(t *testing.T) {
	d := Measure(func() { time.Sleep(time.Microsecond) }, fastTimer)
	if d <= 0 {
		t.Errorf("Measure = %v", d)
	}
}

func TestTuneParallelSequentialFallback(t *testing.T) {
	tu := NewTuner(StrategyEstimate)
	tu.Timer = fastTimer
	// p=1: always sequential.
	c, err := tu.TuneParallel(256, 1, 4, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if c.UsedParallel() {
		t.Error("p=1 chose a parallel plan")
	}
	if c.Time() <= 0 {
		t.Error("no measured time")
	}
}

func TestTuneParallelPicksWinnerAndIsCorrect(t *testing.T) {
	tu := NewTuner(StrategyDP)
	tu.Timer = fastTimer
	pool := smp.NewPool(2)
	defer pool.Close()
	// Large enough that either choice is plausible; whatever wins must be
	// correct and consistent.
	c, err := tu.TuneParallel(1<<14, 2, 4, pool, nil)
	if err != nil {
		t.Fatal(err)
	}
	n := 1 << 14
	x := complexvec.Random(n, 5)
	got := make([]complex128, n)
	if c.UsedParallel() {
		if c.Split == 0 || c.ParTime <= 0 || c.Left.N != c.Split || c.Right.N != n/c.Split {
			t.Error("inconsistent parallel choice")
		}
		if c.Exec.Backend() != pool || c.Exec.Workers() != 2 {
			t.Error("winning executor not compiled on the caller's backend")
		}
		c.Exec.Transform(got, x)
	} else {
		s, _ := exec.NewSeq(c.Tree)
		s.Transform(got, x, nil)
	}
	if e := complexvec.RelError(got, refDFT(x)); e > 1e-9 {
		t.Errorf("tuned plan wrong by %g", e)
	}
}

func TestTuneParallelRejectsBadP(t *testing.T) {
	tu := NewTuner(StrategyEstimate)
	if _, err := tu.TuneParallel(64, 0, 4, nil, nil); err == nil {
		t.Error("accepted p=0")
	}
}

func TestParallelSplitsRespectDivisibility(t *testing.T) {
	for _, c := range []struct{ n, p, mu int }{{256, 2, 4}, {1024, 4, 4}, {4096, 2, 2}} {
		splits := parallelSplits(c.n, c.p, c.mu)
		if len(splits) == 0 {
			t.Errorf("no splits for %+v", c)
		}
		q := c.p * c.mu
		for _, m := range splits {
			if m%q != 0 || (c.n/m)%q != 0 {
				t.Errorf("%+v: split %d violates divisibility", c, m)
			}
		}
	}
	if splits := parallelSplits(64, 4, 4); len(splits) != 0 {
		t.Errorf("expected no splits for 64 on pµ=16, got %v", splits)
	}
}

func TestStrategyString(t *testing.T) {
	if StrategyDP.String() != "dp" || StrategyEstimate.String() != "estimate" ||
		StrategyExhaustive.String() != "exhaustive" || StrategyRandom.String() != "random" {
		t.Error("Strategy.String wrong")
	}
}

func TestTunerTraceAndStats(t *testing.T) {
	var events []metrics.TraceEvent
	tu := NewTuner(StrategyEstimate)
	tu.Trace = func(e metrics.TraceEvent) { events = append(events, e) }
	tu.BestTree(64)
	tu.BestTree(64) // memo hit: no new search, no new events

	st := tu.Stats()
	if st.Searches < 1 {
		t.Errorf("Searches = %d", st.Searches)
	}
	if st.Considered < 1 {
		t.Errorf("Considered = %d", st.Considered)
	}
	if st.Measured != 0 {
		t.Errorf("estimate strategy measured %d candidates", st.Measured)
	}
	var candidates, winners int
	for _, e := range events {
		switch e.Kind {
		case "candidate":
			candidates++
		case "winner":
			winners++
		default:
			t.Errorf("unexpected event kind %q", e.Kind)
		}
		if e.Tree == "" {
			t.Errorf("event without tree: %+v", e)
		}
	}
	// One winner per size searched (64 plus its memoized subsizes), one
	// candidate event per tree considered, and the memoized second call
	// must not have added anything.
	if winners < 1 || int64(candidates) != st.Considered {
		t.Errorf("trace: %d candidates (stats say %d), %d winners", candidates, st.Considered, winners)
	}
	n := len(events)
	tu.BestTree(64)
	if len(events) != n {
		t.Error("memoized search emitted trace events")
	}
}

func TestTunerMeasuredStats(t *testing.T) {
	tu := NewTuner(StrategyDP)
	tu.Timer = fastTimer
	tu.BestTree(64)
	st := tu.Stats()
	if st.Measured < 1 {
		t.Errorf("DP strategy measured %d candidates", st.Measured)
	}
	// Two-stage accounting: every candidate is considered, but only the
	// model's shortlist is measured; the rest are pruned.
	if st.Measured+st.Pruned != st.Considered {
		t.Errorf("DP: measured %d + pruned %d != considered %d", st.Measured, st.Pruned, st.Considered)
	}
	// 64 admits six candidates (leaf + five splits), so with the default
	// shortlist some must have been pruned analytically.
	if st.Pruned < 1 {
		t.Errorf("DP: no candidates pruned (considered %d, topk %d)", st.Considered, tu.TopK)
	}

	// Disabling the model restores full measurement.
	full := NewTuner(StrategyDP)
	full.Model = nil
	full.Timer = fastTimer
	full.BestTree(64)
	fst := full.Stats()
	if fst.Measured != fst.Considered || fst.Pruned != 0 {
		t.Errorf("model-off DP: measured %d, pruned %d, considered %d", fst.Measured, fst.Pruned, fst.Considered)
	}
}

// TestTwoStageMeasuresAtMostTopKPerSize pins the cold-start acceptance
// contract: for every size the search visits, at most TopK candidates are
// actually measured — the rest are dispatched analytically.
func TestTwoStageMeasuresAtMostTopKPerSize(t *testing.T) {
	tu := NewTuner(StrategyDP)
	tu.Timer = fastTimer
	measuredPer := make(map[int]int)
	prunedTotal := 0
	tu.Trace = func(e metrics.TraceEvent) {
		switch e.Kind {
		case "candidate":
			measuredPer[e.N]++
		case "pruned":
			prunedTotal++
		}
	}
	for _, n := range []int{256, 1024} {
		tu.BestTree(n)
	}
	if len(measuredPer) == 0 {
		t.Fatal("no candidates measured at all")
	}
	for n, m := range measuredPer {
		if m > tu.TopK {
			t.Errorf("size %d: measured %d candidates, cap is %d", n, m, tu.TopK)
		}
	}
	if prunedTotal == 0 {
		t.Error("two-stage search pruned nothing on 256/1024")
	}
}

func TestRankedIsSortedAndMeasurementFree(t *testing.T) {
	tu := NewTuner(StrategyDP)
	tu.Timer = fastTimer
	ranked := tu.Ranked(256)
	if len(ranked) < 2 {
		t.Fatalf("Ranked(256) returned %d candidates", len(ranked))
	}
	for i := 1; i < len(ranked); i++ {
		if ranked[i].Cost < ranked[i-1].Cost {
			t.Errorf("ranking not sorted at %d: %g < %g", i, ranked[i].Cost, ranked[i-1].Cost)
		}
	}
	for _, s := range ranked {
		if s.Tree == nil || s.Tree.N != 256 {
			t.Errorf("ranked candidate wrong size: %v", s.Tree)
		}
		if err := s.Tree.Validate(); err != nil {
			t.Errorf("ranked candidate invalid: %v", err)
		}
	}
	if st := tu.Stats(); st.Measured != 0 {
		t.Errorf("Ranked measured %d candidates; must be analytic only", st.Measured)
	}
}

func TestTuneParallelTraces(t *testing.T) {
	var events []metrics.TraceEvent
	tu := NewTuner(StrategyDP)
	tu.Timer = fastTimer
	tu.Trace = func(e metrics.TraceEvent) { events = append(events, e) }
	b := smp.NewSpawn(2)
	defer b.Close()
	if _, err := tu.TuneParallel(256, 2, 4, b, nil); err != nil {
		t.Fatal(err)
	}
	var winner bool
	for _, e := range events {
		if e.Kind == "parallel-winner" {
			winner = true
		}
	}
	if !winner {
		t.Errorf("no parallel-winner event in %d events", len(events))
	}
}

func TestBestCutoffMeasuresCappedTrees(t *testing.T) {
	tu := NewTuner(StrategyDP)
	tu.Timer = fastTimer
	var candidates, winners int
	tu.Trace = func(ev metrics.TraceEvent) {
		switch ev.Kind {
		case "cutoff-candidate":
			candidates++
		case "cutoff-winner":
			winners++
		}
	}
	r := tu.BestCutoff(512)
	checkTree(t, r.Tree, 512, "cutoff")
	if r.Cutoff < 2 || r.Cutoff > 512 {
		t.Errorf("cutoff %d out of range", r.Cutoff)
	}
	if r.Candidates < 2 {
		t.Errorf("only %d cutoff candidates measured", r.Candidates)
	}
	if candidates != r.Candidates || winners != 1 {
		t.Errorf("trace saw %d candidates / %d winners, result says %d", candidates, winners, r.Candidates)
	}
	// The winning tree must actually respect the winning cap.
	var maxLeaf func(tr *exec.Tree) int
	maxLeaf = func(tr *exec.Tree) int {
		if tr.Leaf {
			return tr.N
		}
		l, r := maxLeaf(tr.Left), maxLeaf(tr.Right)
		if l > r {
			return l
		}
		return r
	}
	if m := maxLeaf(r.Tree); m > r.Cutoff {
		t.Errorf("winning tree has leaf %d above cutoff %d", m, r.Cutoff)
	}
}

func TestBestCutoffExpiredBudgetFallsBack(t *testing.T) {
	tu := NewTuner(StrategyDP)
	tu.Timer = fastTimer
	tu.Budget = 1 // one nanosecond: expires before the first measurement
	r := tu.BestCutoff(256)
	if r.Tree == nil || r.Tree.N != 256 {
		t.Fatalf("no fallback tree: %+v", r)
	}
	if r.Cutoff <= 0 {
		t.Errorf("fallback cutoff %d", r.Cutoff)
	}
}
