package cost

import (
	"math"
	"sync"
	"testing"

	"spiralfft/internal/exec"
)

func TestTreeCostGrowsWithSize(t *testing.T) {
	m := New(Params{})
	prev := 0.0
	for _, n := range []int{64, 256, 1024, 4096, 1 << 16} {
		c := m.Tree(exec.RadixTree(n))
		if c <= prev {
			t.Errorf("cost(%d) = %g not above cost of previous size %g", n, c, prev)
		}
		prev = c
	}
}

func TestNaiveLeafPenalized(t *testing.T) {
	m := New(Params{})
	// 49 has no unrolled codelet: the naive O(n²) leaf must cost far more
	// than the (7 x 7) split.
	naive := m.Tree(exec.LeafTree(49))
	split := m.Tree(exec.SplitTree(exec.LeafTree(7), exec.LeafTree(7)))
	if split >= naive {
		t.Errorf("split %g not cheaper than naive %g", split, naive)
	}
}

func TestDeepCombCostsMoreThanRadix(t *testing.T) {
	// A maximal-depth right comb of 2s re-passes the data once per level and
	// gathers at huge strides; the greedy radix tree with large leaves must
	// model cheaper.
	m := New(Params{})
	n := 4096
	comb := exec.LeafTree(2)
	for sz := 4; sz <= n; sz *= 2 {
		comb = exec.SplitTree(exec.LeafTree(2), comb)
	}
	if comb.N != n {
		t.Fatalf("comb built wrong: %d", comb.N)
	}
	radix := exec.RadixTree(n)
	if m.Tree(radix) >= m.Tree(comb) {
		t.Errorf("radix %g not cheaper than comb %g", m.Tree(radix), m.Tree(comb))
	}
}

func TestRankDeterministicAndSorted(t *testing.T) {
	m := New(Params{})
	var trees []*exec.Tree
	n := 256
	for d := 2; d*2 <= n; d++ {
		if n%d == 0 {
			trees = append(trees, exec.SplitTree(exec.RadixTree(d), exec.RadixTree(n/d)))
		}
	}
	trees = append(trees, exec.LeafTree(n))
	r1 := m.Rank(trees)
	r2 := m.Rank(trees)
	if len(r1) != len(trees) {
		t.Fatalf("Rank dropped candidates: %d of %d", len(r1), len(trees))
	}
	for i := range r1 {
		if r1[i].Tree.String() != r2[i].Tree.String() {
			t.Fatalf("rank not deterministic at %d: %s vs %s", i, r1[i].Tree, r2[i].Tree)
		}
		if i > 0 && r1[i].Cost < r1[i-1].Cost {
			t.Fatalf("rank not sorted at %d: %g < %g", i, r1[i].Cost, r1[i-1].Cost)
		}
	}
}

func TestParallelScoring(t *testing.T) {
	m := New(Params{Cores: 2})
	// Admissible pµ-divisible split: finite cost.
	c := m.Parallel(1024, 32, 2, nil, nil)
	if math.IsInf(c, 1) || c <= 0 {
		t.Errorf("Parallel(1024, 32, 2) = %g", c)
	}
	// Indivisible split: +Inf.
	if c := m.Parallel(1024, 3, 2, nil, nil); !math.IsInf(c, 1) {
		t.Errorf("Parallel with bad split = %g, want +Inf", c)
	}
	// A split violating pµ-divisibility cannot lower: +Inf.
	if c := m.Parallel(64, 2, 2, nil, nil); !math.IsInf(c, 1) {
		t.Errorf("Parallel(64, 2, 2) = %g, want +Inf", c)
	}
	// Parallel cost must include the synchronization floor: more barriers
	// than a sequential transform of a tiny size could ever cost.
	if c < 2*m.Params().BarrierCycles/m.Params().FreqGHz {
		t.Errorf("parallel cost %g below the barrier floor", c)
	}
}

func TestHostParams(t *testing.T) {
	h := HostParams()
	if h.Cores < 1 || h.Mu < 1 || h.FreqGHz <= 0 || h.MemLineCycles <= 0 {
		t.Errorf("HostParams incomplete: %+v", h)
	}
}

func TestModelConcurrentUse(t *testing.T) {
	m := New(Params{})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for _, n := range []int{64, 256, 1024} {
				m.Tree(exec.RadixTree(n))
				m.Parallel(1024, 32, 2, nil, nil)
			}
		}(g)
	}
	wg.Wait()
}

func TestScoredDuration(t *testing.T) {
	s := Scored{Cost: 1500}
	if s.Duration() != 1500 {
		t.Errorf("Duration = %v", s.Duration())
	}
	inf := Scored{Cost: math.Inf(1)}
	if inf.Duration() != math.MaxInt64 {
		t.Errorf("Inf Duration = %v", inf.Duration())
	}
}
