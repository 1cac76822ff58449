package search

import (
	"math/rand"
	"testing"
	"time"

	"spiralfft/internal/exec"
)

func evolveTuner() *Tuner {
	tu := NewTuner(StrategyEvolve)
	tu.Timer = fastTimer
	return tu
}

func TestEvolveFindsValidTree(t *testing.T) {
	for _, n := range []int{64, 256, 360} {
		tu := evolveTuner()
		res := tu.BestTree(n)
		checkTree(t, res.Tree, n, "evolve")
		if res.Time <= 0 || res.Candidates == 0 {
			t.Errorf("n=%d: result %+v", n, res)
		}
		// Each distinct tree is timed once: the measurements are the
		// candidates, and there are no more than the generations can breed.
		if st := tu.Stats(); st.Measured != int64(res.Candidates) || res.Candidates > evolvePopulation*(evolveGenerations+1) {
			t.Errorf("n=%d: %d measured, %d candidates", n, st.Measured, res.Candidates)
		}
	}
}

func TestEvolveIsDeterministicForSeed(t *testing.T) {
	// Measured fitness is noisy, but the *search trajectory structure*
	// (random trees, crossover positions) is seeded; with one repeat and a
	// warm machine, at minimum the result must be a valid tree of the right
	// size both times.
	a := evolveTuner().BestTree(128)
	b := evolveTuner().BestTree(128)
	if a.Tree.N != 128 || b.Tree.N != 128 {
		t.Error("evolve returned wrong sizes")
	}
}

func TestEvolveBeatsWorstRandomTree(t *testing.T) {
	// The evolved tree should not be slower than a deliberately bad tree
	// (fully right-recursive radix-2 for a size with big codelets).
	n := 1024
	tu := NewTuner(StrategyEvolve)
	tu.Timer = TimerConfig{MinTime: 100 * time.Microsecond, Repeats: 3}
	res := tu.BestTree(n)
	bad := exec.LeafTree(2)
	for bad.N < n {
		bad = exec.SplitTree(exec.LeafTree(2), bad)
	}
	badTime := tu.MeasureTree(bad)
	if res.Time > badTime*3/2 {
		t.Errorf("evolved tree %s (%v) much slower than radix-2 chain (%v)", res.Tree, res.Time, badTime)
	}
}

// Evolution stops at the tuner's Budget: a search whose every measurement
// takes milliseconds returns inside a budget of a few of them, with the
// champion found so far or the radix fallback.
func TestEvolveStopsAtBudget(t *testing.T) {
	tu := NewTuner(StrategyEvolve)
	tu.Timer = TimerConfig{MinTime: 2 * time.Millisecond, Repeats: 3}
	tu.Budget = 10 * time.Millisecond
	start := time.Now()
	res := tu.BestTree(1 << 12)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Errorf("10ms-budget evolution took %v", elapsed)
	}
	checkTree(t, res.Tree, 1<<12, "budgeted evolve")
	if st := tu.Stats(); st.Measured >= evolvePopulation {
		t.Errorf("budgeted evolution measured %d trees, a full population is %d", st.Measured, evolvePopulation)
	}
}

func TestCrossoverProducesValidTrees(t *testing.T) {
	tu := NewTuner(StrategyEvolve)
	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 50; i++ {
		a := tu.randomTree(256)
		b := tu.randomTree(256)
		c := crossoverTrees(a, b, rng)
		if c.N != 256 {
			t.Fatalf("crossover size %d", c.N)
		}
		if err := c.Validate(); err != nil {
			t.Fatalf("crossover produced invalid tree: %v", err)
		}
	}
}

func TestMutateProducesValidTrees(t *testing.T) {
	tu := NewTuner(StrategyEvolve)
	tr := tu.randomTree(720)
	for i := 0; i < 50; i++ {
		tr = tu.mutateTree(tr)
		if tr.N != 720 {
			t.Fatalf("mutation size %d", tr.N)
		}
		if err := tr.Validate(); err != nil {
			t.Fatalf("mutation produced invalid tree: %v", err)
		}
	}
}

func TestReplaceSubtreeByIdentity(t *testing.T) {
	a := exec.SplitTree(exec.LeafTree(4), exec.LeafTree(8))
	repl := exec.SplitTree(exec.LeafTree(2), exec.LeafTree(2))
	got := replaceSubtree(a, a.Left, repl)
	if got.String() != "((2 x 2) x 8)" {
		t.Errorf("replaceSubtree = %s", got.String())
	}
	// Replacing a node not in the tree is a no-op copy.
	other := exec.LeafTree(4)
	same := replaceSubtree(a, other, repl)
	if same.String() != a.String() {
		t.Errorf("phantom replace changed tree: %s", same.String())
	}
}
