package search

import (
	"context"
	"fmt"
	"sort"
	"time"

	"spiralfft/internal/complexvec"
	"spiralfft/internal/cost"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/smp"
)

// Four-step (large-N) tuning. Candidates are (n1, tile) pairs: the top-level
// split n = n1·n2 of ir.LowerFourStep and the transpose tile edge. The
// analytic model (cost.Model.FourStep) ranks every pair once, in
// RankFourStep; model-only planners take the head of that list and
// BestFourStepCtx measures a prefix of it. The measurement shortlist is
// smaller than DefaultTopK because one transform at the sizes this tier
// serves costs on the order of a second: measuring four candidates would
// blow through any reasonable PlanBudget.

// FourStepTopK caps how many ranked four-step candidates are measured per
// search (Tuner.TopK applies when it is smaller).
const FourStepTopK = 2

// TransposeTiles are the tile-edge candidates ranked for the blocked
// transposes: the model penalizes pairs whose 2·tile² footprint misses L2 and
// tiles small enough to pay per-tile loop overhead, so the larger candidates
// usually rank ahead and the smallest stays as insurance for tiny caches.
var TransposeTiles = []int{16, 32, 64}

// FourStepCandidate is one admissible (n1, tile) pair with its modeled cost.
type FourStepCandidate struct {
	N1, Tile int
	// Score is the modeled runtime in nanoseconds (cost.Model.FourStep).
	Score float64
}

// RankFourStep lists every admissible (n1, tile) pair of the four-step
// schedule for DFT_n on p workers with cache-line length mu, cheapest first
// under the model (nil means cost.Default()). A split n = n1·n2 is
// admissible when both factors are at least 2 and, for p > 1, multiples of µ
// and at least p. A model tie goes to the larger n1 — the row stage carries
// the twiddle work and profits from longer contiguous sub-FFTs, an effect
// below the model's resolution but consistent in measurement — and then to
// the smaller tile. The list is empty when no split is admissible (n prime,
// or no µ-aligned pair for p workers).
func RankFourStep(model *cost.Model, n, p, mu int) []FourStepCandidate {
	if model == nil {
		model = cost.Default()
	}
	if mu < 1 {
		mu = 4
	}
	var out []FourStepCandidate
	add := func(n1 int) {
		n2 := n / n1
		if p > 1 && (n1%mu != 0 || n2%mu != 0 || n1 < p || n2 < p) {
			return
		}
		for _, tile := range TransposeTiles {
			out = append(out, FourStepCandidate{N1: n1, Tile: tile, Score: model.FourStep(n, n1, p, tile, nil, nil)})
		}
	}
	for d := 2; d*d <= n; d++ {
		if n%d != 0 {
			continue
		}
		add(d)
		if d*d != n {
			add(n / d)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Score != b.Score {
			return a.Score < b.Score
		}
		if a.N1 != b.N1 {
			return a.N1 > b.N1
		}
		return a.Tile < b.Tile
	})
	return out
}

// FourStepChoice is the outcome of a four-step search.
type FourStepChoice struct {
	N int
	// N1 and Tile are the winning split (n = N1 · n2) and transpose tile.
	N1, Tile int
	// Prog and Exe are the winning lowered program and its compiled executor
	// (referencing the backend handed to the search; the caller owns both).
	Prog *ir.Program
	Exe  *ir.Executor
	// ColTree and RowTree are the tuned sub-plan factorizations the winner
	// was built with (sizes n2 and N1 respectively).
	ColTree, RowTree *exec.Tree
	// Time is the measured per-transform runtime, or the modeled cost when
	// the budget expired before any candidate was measured.
	Time time.Duration
	// Measured reports whether Time is a measurement.
	Measured bool
	// Candidates is how many (n1, tile) pairs were considered.
	Candidates int
}

// BestFourStep tunes the four-step schedule for DFT_n on p workers with
// cache-line length mu, using the given backend (nil for p == 1).
func (t *Tuner) BestFourStep(n, p, mu int, backend smp.Backend) (FourStepChoice, error) {
	return t.BestFourStepCtx(context.Background(), n, p, mu, backend, nil)
}

// BestFourStepCtx is BestFourStep under a context deadline (composed with
// Tuner.Budget, the earlier applies). It measures the first FourStepTopK
// entries of RankFourStep's list (fewer when Tuner.TopK is smaller). When
// time runs out before any candidate was measured, the model's top-ranked
// candidate is built and returned unmeasured — the search never fails from
// expiry alone. finish, when non-nil, completes each candidate program as
// in TuneParallel, and the candidates are timed as finished.
func (t *Tuner) BestFourStepCtx(ctx context.Context, n, p, mu int, backend smp.Backend, finish Finish) (FourStepChoice, error) {
	if p < 1 {
		return FourStepChoice{}, fmt.Errorf("search: BestFourStep p=%d", p)
	}
	if mu < 1 {
		mu = 4
	}
	t.beginSearch(ctx)
	defer t.endSearch()
	t.stats.Searches++
	ranked := RankFourStep(t.Model, n, p, mu)
	if len(ranked) == 0 {
		return FourStepChoice{}, fmt.Errorf("search: no admissible four-step split for n=%d p=%d µ=%d", n, p, mu)
	}
	k := t.TopK
	if k <= 0 || k > FourStepTopK {
		k = FourStepTopK
	}

	// A candidate's program and executor are built on first timing.
	type cand struct {
		FourStepCandidate
		prog     *ir.Program
		exe      *ir.Executor
		col, row *exec.Tree
	}
	var x, y []complex128
	build := func(c *cand) error {
		var be smp.Backend
		if p > 1 {
			be = backend
		}
		c.col = t.bestTree(n / c.N1).Tree
		c.row = t.bestTree(c.N1).Tree
		prog, err := finish.Apply(ir.LowerFourStep(n, c.N1, ir.FourStepConfig{
			P: p, Mu: mu, Tile: c.Tile, ColTree: c.col, RowTree: c.row,
		}))
		if err != nil {
			return err
		}
		if c.exe, err = ir.NewExecutor(prog, be); err != nil {
			return err
		}
		c.prog = prog
		if x == nil {
			x = complexvec.Random(prog.BufLen(ir.BufSrc), 5)
			y = make([]complex128, prog.BufLen(ir.BufDst))
		}
		return nil
	}
	cands := make([]*cand, len(ranked))
	for i, c := range ranked {
		cands[i] = &cand{FourStepCandidate: c}
	}

	// At the sizes this tier serves one transform already exceeds MinTime, so
	// calibration stops at a single call; median-of-3 rounds would buy no
	// discrimination while costing seconds per candidate. Unless the caller
	// configured rounds explicitly, one round decides.
	cfg := t.Timer
	if cfg.Repeats == 0 {
		cfg.Repeats = 1
	}
	win, d, ok := pick(t, cands, scan[*cand]{
		kind:  "fourstep-",
		n:     n,
		label: func(c *cand) string { return fmt.Sprintf("%d·%d tile=%d", c.N1, n/c.N1, c.Tile) },
		score: func(c *cand) float64 { return c.Score },
		topK:  k,
		build: func(c *cand) (func(), error) {
			if err := build(c); err != nil {
				return nil, err
			}
			return func() { c.exe.Transform(y, x) }, nil
		},
		timer: cfg,
	})
	if !ok {
		// Budget expired (or every shortlisted build failed) before a
		// measurement: build the model's top-ranked candidate unmeasured.
		// bestTree inside build degrades to the radix fallback under the same
		// expired deadline, so this path stays fast.
		win, d = cands[0], modeled(cands[0].Score)
		if err := build(win); err != nil {
			return FourStepChoice{}, fmt.Errorf("search: four-step fallback build n=%d n1=%d: %w", n, win.N1, err)
		}
	}
	best := FourStepChoice{
		N: n, N1: win.N1, Tile: win.Tile, Prog: win.prog, Exe: win.exe,
		ColTree: win.col, RowTree: win.row, Time: d, Measured: ok, Candidates: len(cands),
	}
	t.trace("fourstep-winner", n, fmt.Sprintf("%d·%d tile=%d", best.N1, n/best.N1, best.Tile), best.Time)
	return best, nil
}
