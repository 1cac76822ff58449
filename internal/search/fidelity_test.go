package search

import (
	"os"
	"testing"
	"time"

	"spiralfft/internal/cost"
	"spiralfft/internal/exec"
)

// TestAnalyticTopKContainsMeasuredBest is the model-fidelity acceptance gate:
// for every size on the quick benchmark grid, the analytic top-k of the
// candidate list must contain a tree whose measured runtime is within 10% of
// the measured-best candidate — i.e. pruning to the model's shortlist cannot
// cost more than the acceptance tolerance. The full-measurement DP tuner
// (pruning disabled) is the oracle the shortlist is judged against.
//
// The comparison is min-of-trials and interleaved so clock drift hits every
// candidate equally; a membership hit by tree identity short-circuits the
// timing entirely. SPIRALFFT_MODEL_FULLGRID=1 widens the sweep to the full
// power-of-two grid.
func TestAnalyticTopKContainsMeasuredBest(t *testing.T) {
	if testing.Short() {
		t.Skip("measured fidelity sweep")
	}
	sizes := []int{256, 1024, 4096} // quick-grid DFT sizes
	if os.Getenv("SPIRALFFT_MODEL_FULLGRID") != "" {
		sizes = []int{64, 128, 256, 512, 1024, 2048, 4096, 8192, 16384}
	}
	for _, n := range sizes {
		n := n
		// Oracle: measure every candidate (pruning disabled), budget-bounded.
		full := NewTuner(StrategyDP)
		full.TopK = 0
		full.Timer = TimerConfig{MinTime: 100 * time.Microsecond, Repeats: 3}
		full.Budget = 30 * time.Second
		oracle := full.BestTree(n)
		if oracle.Tree == nil {
			t.Fatalf("n=%d: oracle found no tree", n)
		}
		// The exact candidate list the oracle chose from (subtree picks are
		// memoized, so this re-enumeration measures nothing).
		cands := full.candidateTrees(n, func(m, k int) (*exec.Tree, *exec.Tree) {
			return full.bestTree(m).Tree, full.bestTree(k).Tree
		})
		ranked := cost.Default().Rank(cands)
		k := DefaultTopK
		if k > len(ranked) {
			k = len(ranked)
		}
		topk := ranked[:k]

		// Identity short-circuit: the oracle's pick is in the shortlist.
		inTopK := false
		for _, s := range topk {
			if s.Tree.String() == oracle.Tree.String() {
				inTopK = true
				break
			}
		}
		if inTopK {
			continue
		}

		// The oracle picked something the model ranked out. That is still
		// acceptable when some shortlisted tree measures within 10% of the
		// oracle's pick — re-measure both sides min-of-trials, interleaved.
		const trials = 5
		timer := TimerConfig{MinTime: 300 * time.Microsecond, Repeats: 1}
		meas := NewTuner(StrategyDP)
		meas.Timer = timer
		oracleBest := time.Duration(1<<62 - 1)
		topkBest := time.Duration(1<<62 - 1)
		for trial := 0; trial < trials; trial++ {
			if d := meas.MeasureTree(oracle.Tree); d < oracleBest {
				oracleBest = d
			}
			for _, s := range topk {
				if d := meas.MeasureTree(s.Tree); d < topkBest {
					topkBest = d
				}
			}
		}
		limit := oracleBest + oracleBest/10 + 2*time.Microsecond
		if topkBest > limit {
			t.Errorf("n=%d: analytic top-%d best %v exceeds 110%% of measured best %v (oracle tree %s)",
				n, k, topkBest, oracleBest, oracle.Tree)
		} else {
			t.Logf("n=%d: oracle pick %s pruned, but shortlist within tolerance (%v vs %v)",
				n, oracle.Tree, topkBest, oracleBest)
		}
	}
}
