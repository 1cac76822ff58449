package spiralfft

import (
	"context"
	"errors"

	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/search"
	"spiralfft/internal/smp"
)

// The enormous-FFT tier. Beyond Options.LargeNThreshold the tree planner's
// recursive schedule stops making sense: its stage-2 column walks stride
// across the whole N-element buffer (one memory line per element) and its
// root twiddle diagonal is an O(N) resident table. This tier lowers such
// sizes through the four-step decomposition instead (ir.LowerFourStep): two
// passes over memory in panels of column and row sub-FFTs (µ-aligned worker
// ranges, ops up to 16µ wide on the short side), with no transpose and no
// n-sized temp, and every twiddle row generated on the fly into
// O(µ·max(n1, n2)) worker scratch. The sub-FFTs reuse the ordinary tree
// planner, so the whole codelet tier and tuning machinery carries over; the
// split n1 itself is ranked by the analytic model, and only the measuring
// planners time the top candidates inside PlanBudget
// (search.BestFourStepCtx). The two-pass program needs dst apart from src;
// a call with dst overlapping src runs the InPlace lowering instead, built
// on first use (planCore.aliased), so only callers that alias pay for its
// n-sized temp.
//
// The tier deliberately does not feed the Wisdom store, nor consult it for
// the full size: wisdom slots hold factorization trees, and recording a tree
// for these sizes would invite a later plan to build it through the tree
// executor — materializing exactly the O(N) twiddle state the tier exists to
// avoid.

// DefaultLargeNThreshold is the transform size at which NewPlan switches to
// the four-step large-N tier when Options.LargeNThreshold is left zero:
// 2^22 complex128 elements (64 MiB per buffer) dwarfs every cache level the
// cost model knows about.
const DefaultLargeNThreshold = 1 << 22

// errNoFourStepSplit reports a size the four-step tier cannot decompose
// (prime, or no µ-aligned factor pair for the requested worker count); the
// caller falls back to the tree planner.
var errNoFourStepSplit = errors.New("spiralfft: no admissible four-step split")

// fourStepInfo records the large-N tier's choice on the plan.
type fourStepInfo struct {
	n1 int
}

// bestFourStep is the measuring planners' four-step search (a variable so
// tests can observe the executor the plan adopts).
var bestFourStep = (*search.Tuner).BestFourStepCtx

// planFourStep builds the plan through the large-N tier. Every planner reads
// one ranking of the admissible splits n1 (search.RankFourStep).
// Model-only planners (PlannerFixed, PlannerEstimate) take its head, with
// sub-trees from planTree as on the tree tier, and run no transform.
// Measuring planners time a prefix of it (search.BestFourStepCtx) and adopt
// the executor that won. The plan runs one four-step program: the
// worker-partitioned one for Workers > 1, the sequential one otherwise.
// Returns errNoFourStepSplit when the tier cannot decompose the size; the
// caller then falls back to the tree planner.
func (p *Plan) planFourStep(tuner *search.Tuner) error {
	opt, n, mu := p.opt, p.n, p.opt.CacheLineComplex
	workers := opt.Workers
	ranked := search.RankFourStep(tuner.Model, n, workers, mu)
	if len(ranked) == 0 && workers > 1 {
		// A split exists only for fewer workers: run the tier sequentially.
		workers = 1
		ranked = search.RankFourStep(tuner.Model, n, 1, mu)
	}
	if len(ranked) == 0 {
		return errNoFourStepSplit
	}
	fs := fourStepInfo{n1: ranked[0].N1}
	var col, row *exec.Tree
	build := compiled(func() (*ir.Program, error) {
		return p.finisher().Apply(ir.LowerFourStep(n, fs.n1, ir.FourStepConfig{
			P: workers, Mu: mu, ColTree: col, RowTree: row,
		}))
	})
	if opt.Planner == PlannerFixed || opt.Planner == PlannerEstimate {
		col, _ = planTree(tuner, opt, n/fs.n1)
		row, _ = planTree(tuner, opt, fs.n1)
	} else {
		// The search times the program on the plan's backend (or alone for
		// one worker); the plan ships that very executor.
		build = func(b smp.Backend) (*ir.Executor, error) {
			choice, err := bestFourStep(tuner, context.Background(), n, workers, mu, b, p.finisher())
			fs, col, row = fourStepInfo{n1: choice.N1}, choice.ColTree, choice.RowTree
			return choice.Exe, err
		}
	}
	// The step builds the one program for the plan's worker count: compile
	// runs it on the backend when workers > 1 and alone otherwise.
	if err := p.compile(opt, workers, build, build); err != nil {
		return err
	}
	p.fourStep = &fs
	p.m, p.ltree, p.rtree = fs.n1, row, col
	p.lowerAliased = p.aliasedProgram
	return nil
}
