package search

import (
	"context"
	"fmt"
	"math/rand"
	"sort"
	"time"

	"spiralfft/internal/codelet"
	"spiralfft/internal/complexvec"
	"spiralfft/internal/cost"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/metrics"
	"spiralfft/internal/smp"
)

// DefaultTopK is how many top-ranked candidates the two-stage search measures
// per size: the analytic model (internal/cost) scores every candidate, and
// only the k cheapest are timed for real.
const DefaultTopK = 4

// Strategy selects the sequential search method.
type Strategy int

const (
	// StrategyDP is dynamic programming with measured subtree times.
	StrategyDP Strategy = iota
	// StrategyEstimate uses the analytic cost model only (no measurements).
	StrategyEstimate
	// StrategyExhaustive measures every binary factorization tree
	// (practical for n ≤ 4096 or so).
	StrategyExhaustive
	// StrategyRandom samples random trees and keeps the fastest.
	StrategyRandom
)

// String names the strategy.
func (s Strategy) String() string {
	switch s {
	case StrategyDP:
		return "dp"
	case StrategyEstimate:
		return "estimate"
	case StrategyExhaustive:
		return "exhaustive"
	default:
		return "random"
	}
}

// Tuner searches the factorization space. It memoizes per-size results, so
// tuning a sweep of sizes shares work. A Tuner is not safe for concurrent
// use.
type Tuner struct {
	Strategy Strategy
	Timer    TimerConfig
	// Model is the analytic cost model behind the two-stage search: before
	// any candidate is measured, the model ranks the full candidate list and
	// only the TopK cheapest are timed. NewTuner installs the host-default
	// model; set nil to disable ranking (every candidate is measured, the
	// pre-model behavior). StrategyExhaustive ignores the model and stays a
	// full-measurement oracle.
	Model *cost.Model
	// TopK bounds how many ranked candidates are measured per size (default
	// DefaultTopK; ≤ 0 disables pruning).
	TopK int
	// RandomSamples bounds StrategyRandom (default 30).
	RandomSamples int
	// Budget, when positive, bounds the total planning time of each
	// top-level BestTree/TuneParallel call: once it is spent, candidate
	// loops stop and the best tree found so far wins (the balanced radix
	// tree when nothing was measured in time). A context deadline passed to
	// the Ctx variants composes with it — the earlier of the two applies.
	Budget time.Duration
	// Trace, when set, receives one event per candidate tree considered
	// (with its measured or modeled cost) and one per winner chosen —
	// Spiral's search log as a stream. Opt-in: nil (the default) costs
	// nothing.
	Trace func(metrics.TraceEvent)
	// rng drives random search deterministically.
	rng  *rand.Rand
	memo map[int]Result
	// stats counts search work (Tuner is single-goroutine, plain ints).
	stats TunerStats
	// Active-search deadline state, set by beginSearch on the outermost
	// BestTree/TuneParallel entry and cleared by endSearch.
	ctx      context.Context
	deadline time.Time
	depth    int
}

// TunerStats counts the work a Tuner has done.
type TunerStats struct {
	// Searches counts BestTree cache misses (one search per size) plus
	// TuneParallel calls.
	Searches int64
	// Considered counts candidate trees examined across all searches.
	Considered int64
	// Measured counts candidates timed by running the actual plan (as
	// opposed to modeled analytically).
	Measured int64
	// Pruned counts candidates the analytic model ranked out of the
	// measurement shortlist (they are Considered, never Measured).
	Pruned int64
}

// Stats returns the accumulated search counters.
func (t *Tuner) Stats() TunerStats { return t.stats }

// trace emits ev to the Trace hook if one is installed.
func (t *Tuner) trace(kind string, n int, tree string, d time.Duration) {
	if t.Trace != nil {
		t.Trace(metrics.TraceEvent{Kind: kind, N: n, Tree: tree, Time: d})
	}
}

// Result is a tuned sequential plan for one size.
type Result struct {
	Tree *exec.Tree
	// Time is the measured (or modeled) per-transform runtime.
	Time time.Duration
	// Candidates is how many trees were considered for this size.
	Candidates int
}

// NewTuner returns a tuner with the given strategy, the host-default cost
// model and the default measurement shortlist size.
func NewTuner(s Strategy) *Tuner {
	return &Tuner{
		Strategy:      s,
		Model:         cost.Default(),
		TopK:          DefaultTopK,
		RandomSamples: 30,
		rng:           rand.New(rand.NewSource(1)),
		memo:          make(map[int]Result),
	}
}

// BestTree returns the tuned factorization tree for DFT_n.
func (t *Tuner) BestTree(n int) Result {
	return t.BestTreeCtx(context.Background(), n)
}

// BestTreeCtx is BestTree under a context: the search observes ctx's
// deadline/cancellation (and the Tuner's Budget, whichever is earlier) at
// candidate granularity and returns the best tree found so far when time
// runs out — falling back to the balanced radix tree if no candidate was
// measured. Truncated results are not memoized, so a later call with fresh
// budget searches again.
func (t *Tuner) BestTreeCtx(ctx context.Context, n int) Result {
	t.beginSearch(ctx)
	defer t.endSearch()
	return t.bestTree(n)
}

// beginSearch arms the deadline state for a top-level search entry; nested
// entries (dp recursing through BestTree) inherit the outer deadline.
func (t *Tuner) beginSearch(ctx context.Context) {
	t.depth++
	if t.depth > 1 {
		return
	}
	if ctx == nil {
		ctx = context.Background()
	}
	t.ctx = ctx
	t.deadline = time.Time{}
	if t.Budget > 0 {
		t.deadline = now().Add(t.Budget)
	}
	if d, ok := ctx.Deadline(); ok && (t.deadline.IsZero() || d.Before(t.deadline)) {
		t.deadline = d
	}
}

func (t *Tuner) endSearch() {
	t.depth--
	if t.depth == 0 {
		t.ctx = nil
		t.deadline = time.Time{}
	}
}

// expired reports whether the active search is out of time.
func (t *Tuner) expired() bool {
	if t.ctx != nil && t.ctx.Err() != nil {
		return true
	}
	return !t.deadline.IsZero() && !now().Before(t.deadline)
}

// measureContext derives the context handed to MeasureCtx so that a single
// slow candidate cannot overrun the search deadline by more than one
// measurement round.
func (t *Tuner) measureContext() (context.Context, context.CancelFunc) {
	ctx := t.ctx
	if ctx == nil {
		ctx = context.Background()
	}
	if t.deadline.IsZero() {
		return ctx, func() {}
	}
	return context.WithDeadline(ctx, t.deadline)
}

func (t *Tuner) bestTree(n int) Result {
	if r, ok := t.memo[n]; ok {
		return r
	}
	t.stats.Searches++
	var r Result
	switch t.Strategy {
	case StrategyEstimate:
		r = t.estimate(n)
	case StrategyExhaustive:
		r = t.exhaustive(n)
	case StrategyRandom:
		r = t.random(n)
	default:
		r = t.dp(n)
	}
	if r.Tree == nil {
		// Deadline preempted every candidate: the balanced radix tree is
		// always admissible and a sound untuned default.
		r.Tree = exec.RadixTree(n)
	}
	if !t.expired() {
		t.memo[n] = r
	}
	if r.Tree != nil {
		t.trace("winner", n, r.Tree.String(), r.Time)
	}
	return r
}

// dp: best tree for n = min over splits m·k of the tree combining the best
// trees of m and k. Two-stage: the analytic model ranks the candidates and
// only the top-k are measured by running the actual subplan.
func (t *Tuner) dp(n int) Result {
	candidates := t.candidateTrees(n, func(m, k int) (*exec.Tree, *exec.Tree) {
		return t.bestTree(m).Tree, t.bestTree(k).Tree
	})
	best := Result{Candidates: len(candidates)}
	for _, tr := range t.shortlist(candidates) {
		if t.expired() {
			break
		}
		d := t.measureTree(tr)
		if best.Tree == nil || d < best.Time {
			best.Tree, best.Time = tr, d
		}
	}
	return best
}

// shortlist ranks candidates analytically and returns the TopK cheapest for
// measurement. Without a model (or with pruning disabled) every candidate is
// measured. Pruned candidates still count as Considered and emit a "pruned"
// trace event carrying their modeled cost.
func (t *Tuner) shortlist(candidates []*exec.Tree) []*exec.Tree {
	if t.Model == nil || t.TopK <= 0 || len(candidates) <= t.TopK {
		return candidates
	}
	ranked := t.Model.Rank(candidates)
	out := make([]*exec.Tree, 0, t.TopK)
	for i, s := range ranked {
		if i < t.TopK {
			out = append(out, s.Tree)
			continue
		}
		t.stats.Considered++
		t.stats.Pruned++
		t.trace("pruned", s.Tree.N, s.Tree.String(), s.Duration())
	}
	return out
}

// estimate: same candidate set, analytic cost model only — no measurement.
func (t *Tuner) estimate(n int) Result {
	candidates := t.candidateTrees(n, func(m, k int) (*exec.Tree, *exec.Tree) {
		return t.bestTree(m).Tree, t.bestTree(k).Tree
	})
	best := Result{Candidates: len(candidates)}
	for _, tr := range candidates {
		if t.expired() {
			break
		}
		t.stats.Considered++
		var c time.Duration
		if t.Model != nil {
			c = t.Model.TreeDuration(tr)
		} else {
			c = time.Duration(ModelCost(tr))
		}
		t.trace("candidate", tr.N, tr.String(), c)
		if best.Tree == nil || c < best.Time {
			best.Tree, best.Time = tr, c
		}
	}
	return best
}

// exhaustive: measure every binary tree over every divisor split.
func (t *Tuner) exhaustive(n int) Result {
	trees := allTrees(n, make(map[int][]*exec.Tree))
	best := Result{Candidates: len(trees)}
	for _, tr := range trees {
		if t.expired() {
			break
		}
		d := t.measureTree(tr)
		if best.Tree == nil || d < best.Time {
			best.Tree, best.Time = tr, d
		}
	}
	return best
}

// random: sample random trees.
func (t *Tuner) random(n int) Result {
	best := Result{Candidates: t.RandomSamples}
	for i := 0; i < t.RandomSamples; i++ {
		if t.expired() {
			break
		}
		tr := t.randomTree(n)
		d := t.measureTree(tr)
		if best.Tree == nil || d < best.Time {
			best.Tree, best.Time = tr, d
		}
	}
	return best
}

// candidateTrees enumerates the top-split candidates for n: the codelet leaf
// when available, and one tree per divisor split with subtrees chosen by sub.
func (t *Tuner) candidateTrees(n int, sub func(m, k int) (*exec.Tree, *exec.Tree)) []*exec.Tree {
	var out []*exec.Tree
	if codelet.HasUnrolled(n) {
		out = append(out, exec.LeafTree(n))
	}
	for m := 2; m*2 <= n; m++ {
		if n%m != 0 {
			continue
		}
		l, r := sub(m, n/m)
		out = append(out, exec.SplitTree(l, r))
	}
	if len(out) == 0 {
		// Prime beyond the codelet set: naive leaf.
		out = append(out, exec.LeafTree(n))
	}
	return out
}

// measureTree times one transform of the tree's compiled plan.
func (t *Tuner) measureTree(tr *exec.Tree) time.Duration {
	t.stats.Considered++
	s, err := exec.NewSeq(tr)
	if err != nil {
		return unmeasured
	}
	t.stats.Measured++
	x := complexvec.Random(tr.N, 7)
	y := make([]complex128, tr.N)
	scratch := s.NewScratch()
	ctx, cancel := t.measureContext()
	d := MeasureCtx(ctx, func() { s.Transform(y, x, scratch) }, t.Timer)
	cancel()
	t.trace("candidate", tr.N, tr.String(), d)
	return d
}

// MeasureTree times one transform of the tree's compiled plan under the
// tuner's timer configuration. Exported for the model-inspection path
// (cmd/tune -rank) and model-fidelity tests; it contributes to the tuner's
// stats like any search measurement.
func (t *Tuner) MeasureTree(tr *exec.Tree) time.Duration {
	t.beginSearch(context.Background())
	defer t.endSearch()
	return t.measureTree(tr)
}

// Ranked returns the analytically scored top-split candidate list for n,
// cheapest first, without measuring anything: subtrees are chosen by the
// model alone, so the result is exactly the stage-one ranking a cold-start
// search would shortlist from. With a nil Model the host-default model is
// used.
func (t *Tuner) Ranked(n int) []cost.Scored {
	model := t.Model
	if model == nil {
		model = cost.Default()
	}
	memo := make(map[int]*exec.Tree)
	return model.Rank(t.candidateTrees(n, func(m, k int) (*exec.Tree, *exec.Tree) {
		return t.analyticBest(m, model, memo), t.analyticBest(k, model, memo)
	}))
}

// analyticBest picks the model-cheapest tree for n recursively (memoized per
// Ranked call; independent of the measured memo).
func (t *Tuner) analyticBest(n int, model *cost.Model, memo map[int]*exec.Tree) *exec.Tree {
	if tr, ok := memo[n]; ok {
		return tr
	}
	cands := t.candidateTrees(n, func(m, k int) (*exec.Tree, *exec.Tree) {
		return t.analyticBest(m, model, memo), t.analyticBest(k, model, memo)
	})
	best := model.Rank(cands)[0].Tree
	memo[n] = best
	return best
}

func (t *Tuner) randomTree(n int) *exec.Tree {
	if codelet.HasUnrolled(n) && (t.rng.Intn(2) == 0 || n <= 4) {
		return exec.LeafTree(n)
	}
	var divs []int
	for d := 2; d*2 <= n; d++ {
		if n%d == 0 {
			divs = append(divs, d)
		}
	}
	if len(divs) == 0 {
		return exec.LeafTree(n)
	}
	m := divs[t.rng.Intn(len(divs))]
	return exec.SplitTree(t.randomTree(m), t.randomTree(n/m))
}

// allTrees enumerates every binary factorization tree of n (memoized).
func allTrees(n int, memo map[int][]*exec.Tree) []*exec.Tree {
	if ts, ok := memo[n]; ok {
		return ts
	}
	var out []*exec.Tree
	if codelet.HasUnrolled(n) {
		out = append(out, exec.LeafTree(n))
	}
	for m := 2; m*2 <= n; m++ {
		if n%m != 0 {
			continue
		}
		for _, l := range allTrees(m, memo) {
			for _, r := range allTrees(n/m, memo) {
				out = append(out, exec.SplitTree(l, r))
			}
		}
	}
	if len(out) == 0 {
		out = append(out, exec.LeafTree(n))
	}
	memo[n] = out
	return out
}

// ModelCost is the analytic cost model (in arbitrary nanosecond-like units)
// used by StrategyEstimate: codelet leaves cost ~2.5·n·log2(n) plus call
// overhead, naive leaves cost n², and inner nodes add a strided-access
// penalty proportional to the data volume and the log of the stride factor m.
func ModelCost(t *exec.Tree) float64 {
	if t.Leaf {
		if codelet.HasUnrolled(t.N) {
			l := 0.0
			for v := t.N; v > 1; v >>= 1 {
				l++
			}
			return 2.5*float64(t.N)*l + 20
		}
		return float64(t.N) * float64(t.N)
	}
	m, k := t.M(), t.K()
	cost := float64(m)*ModelCost(t.Right) + float64(k)*ModelCost(t.Left)
	// Strided pass penalty: touching n elements at stride m.
	penalty := float64(t.N) * (1 + 0.3*logf(m))
	if !t.Left.Leaf {
		penalty += float64(t.N) // pre-scale pass
	}
	return cost + penalty
}

func logf(n int) float64 {
	l := 0.0
	for v := n; v > 1; v >>= 1 {
		l++
	}
	return l
}

// ---------------------------------------------------------------------------
// Base-case cutoff search

// CutoffResult is the outcome of a base-case-cutoff search: the measured
// answer to "how large should the straight-line leaves be on this machine".
type CutoffResult struct {
	N      int // probe size the cutoffs were measured at
	Cutoff int // winning cap: recursion bottoms out at codelets ≤ this size
	// Tree is the winning capped greedy radix tree for the probe size; it
	// persists through the wisdom schema like any other tuned tree.
	Tree       *exec.Tree
	Time       time.Duration
	Candidates int
}

// BestCutoff measures where the factorization recursion should bottom out:
// for probe size n it times the greedy radix tree capped at each registered
// codelet size (deduplicating caps that produce the same tree) and returns
// the fastest. Bigger leaves mean fewer passes but larger straight-line
// blocks; the crossover is machine-dependent (I-cache, register pressure),
// which is why it is searched, not assumed. The winning tree round-trips
// through the wisdom export/import schema unchanged.
func (t *Tuner) BestCutoff(n int) CutoffResult {
	return t.BestCutoffCtx(context.Background(), n)
}

// BestCutoffCtx is BestCutoff under a context deadline (composed with
// Tuner.Budget, the earlier applies). When time runs out it returns the best
// cutoff measured so far, falling back to the uncapped greedy tree.
func (t *Tuner) BestCutoffCtx(ctx context.Context, n int) CutoffResult {
	t.beginSearch(ctx)
	defer t.endSearch()
	t.stats.Searches++
	best := CutoffResult{N: n}
	type capped struct {
		cap  int
		tree *exec.Tree
	}
	var cands []capped
	seen := make(map[string]bool)
	for _, c := range codelet.Sizes() {
		if c < 2 || c > n {
			continue
		}
		tr := exec.RadixTreeCap(n, c)
		key := tr.String()
		if seen[key] {
			continue
		}
		seen[key] = true
		cands = append(cands, capped{cap: c, tree: tr})
	}
	// Stage one: rank the capped trees analytically, measure only the top-k.
	if t.Model != nil && t.TopK > 0 && len(cands) > t.TopK {
		capOf := make(map[string]int, len(cands))
		trees := make([]*exec.Tree, len(cands))
		for i, c := range cands {
			trees[i] = c.tree
			capOf[c.tree.String()] = c.cap
		}
		ranked := t.Model.Rank(trees)
		cands = cands[:0]
		for i, s := range ranked {
			if i < t.TopK {
				cands = append(cands, capped{cap: capOf[s.Tree.String()], tree: s.Tree})
				continue
			}
			t.stats.Considered++
			t.stats.Pruned++
			t.trace("cutoff-pruned", n, fmt.Sprintf("cap=%d %s", capOf[s.Tree.String()], s.Tree.String()), s.Duration())
		}
	}
	for _, c := range cands {
		if t.expired() {
			break
		}
		best.Candidates++
		d := t.measureTree(c.tree)
		t.trace("cutoff-candidate", n, fmt.Sprintf("cap=%d %s", c.cap, c.tree.String()), d)
		if best.Tree == nil || d < best.Time {
			best.Tree, best.Time, best.Cutoff = c.tree, d, c.cap
		}
	}
	if best.Tree == nil {
		best.Tree = exec.RadixTree(n)
		best.Cutoff = codelet.MaxUnrolled()
	}
	t.trace("cutoff-winner", n, fmt.Sprintf("cap=%d %s", best.Cutoff, best.Tree.String()), best.Time)
	return best
}

// ---------------------------------------------------------------------------
// Parallel tuning

// ParallelChoice is the outcome of tuning a size for a shared-memory target.
type ParallelChoice struct {
	N int
	// Exec is the winning split's formula (14) executor, compiled on the
	// caller's backend — the very executor whose runtime is ParTime. It is
	// nil when the sequential plan won (or no valid split exists); then Tree
	// holds the sequential choice.
	Exec *ir.Executor
	Tree *exec.Tree
	// SeqExec is Tree's single-worker executor, the one whose runtime is
	// SeqTime: a caller that keeps the size sequential ships it as is.
	SeqExec *ir.Executor
	// Split is the chosen top-level m (0 for sequential), and Left and Right
	// the sub-trees of DFT_m and DFT_{n/m} the winning executor runs.
	Split       int
	Left, Right *exec.Tree
	// SeqTime and ParTime are the measured runtimes (ParTime 0 if untried).
	SeqTime, ParTime time.Duration
}

// UsedParallel reports whether the tuned plan uses the parallel executor.
func (c ParallelChoice) UsedParallel() bool { return c.Exec != nil }

// Time returns the runtime of the winning plan.
func (c ParallelChoice) Time() time.Duration {
	if c.UsedParallel() {
		return c.ParTime
	}
	return c.SeqTime
}

// TuneParallel tunes DFT_n for p workers with cache-line length mu on the
// given backend: it measures the tuned sequential plan and every admissible
// multicore Cooley-Tukey split (subtrees from the sequential tuner) and
// returns the fastest. The returned executor (if any) references the
// backend; the caller owns both.
//
// finish, when non-nil, completes each lowered DFT_n program into the
// program the plan ships (the real-input family wraps its untangle region
// around it, ir.RealForward), and the candidates are timed as finished.
func (t *Tuner) TuneParallel(n, p, mu int, backend smp.Backend, finish Finish) (ParallelChoice, error) {
	return t.TuneParallelCtx(context.Background(), n, p, mu, backend, finish)
}

// Finish completes a lowered DFT program into the program a plan ships; a
// nil Finish ships the DFT program itself.
type Finish func(*ir.Program) (*ir.Program, error)

// Apply runs f on a lowering's result, passing a lowering error through.
func (f Finish) Apply(prog *ir.Program, err error) (*ir.Program, error) {
	if err != nil || f == nil {
		return prog, err
	}
	return f(prog)
}

// TuneParallelCtx is TuneParallel under a context deadline (composed with
// Tuner.Budget, the earlier applies): when time runs out it stops trying
// further splits and returns the best plan measured so far — at worst the
// untuned sequential radix-tree plan, never an error from expiry alone.
//
// Both sides are timed as the IR executors a plan ships: the sequential
// tree as its ir.LowerTree program, each split as its ir.LowerCT program
// compiled on the backend, each completed by finish. The winning parallel
// executor is returned as is, so the plan runs exactly what was measured.
func (t *Tuner) TuneParallelCtx(ctx context.Context, n, p, mu int, backend smp.Backend, finish Finish) (ParallelChoice, error) {
	if p < 1 {
		return ParallelChoice{}, fmt.Errorf("search: TuneParallel p=%d", p)
	}
	t.beginSearch(ctx)
	defer t.endSearch()
	t.stats.Searches++
	seq := t.bestTree(n)
	choice := ParallelChoice{N: n, Tree: seq.Tree}
	prog, err := finish.Apply(ir.LowerTree(seq.Tree))
	if err != nil {
		return ParallelChoice{}, err
	}
	choice.SeqExec, err = ir.NewExecutor(prog, nil)
	if err != nil {
		return ParallelChoice{}, err
	}
	x := complexvec.Random(prog.BufLen(ir.BufSrc), 3)
	y := make([]complex128, prog.BufLen(ir.BufDst))
	choice.SeqTime = t.measureExecutor(choice.SeqExec, x, y)
	t.trace("parallel-candidate", n, "sequential "+seq.Tree.String(), choice.SeqTime)
	if p == 1 || backend == nil {
		return choice, nil
	}
	splits := parallelSplits(n, p, mu)
	// Stage one: rank the admissible splits analytically (radix subtrees —
	// pure model, no measurement) and measure only the top-k. Without a
	// model, fall back to the most-balanced five.
	if t.Model != nil && t.TopK > 0 && len(splits) > t.TopK {
		sort.SliceStable(splits, func(i, j int) bool {
			return t.Model.Parallel(n, splits[i], p, nil, nil) < t.Model.Parallel(n, splits[j], p, nil, nil)
		})
		for _, m := range splits[t.TopK:] {
			t.stats.Considered++
			t.stats.Pruned++
			t.trace("parallel-pruned", n, fmt.Sprintf("%d·%d", m, n/m),
				time.Duration(t.Model.Parallel(n, m, p, nil, nil)))
		}
		splits = splits[:t.TopK]
	} else if len(splits) > 5 {
		splits = splits[:5]
	}
	for _, m := range splits {
		if t.expired() {
			break
		}
		lt, rt := t.bestTree(m).Tree, t.bestTree(n/m).Tree
		prog, err := finish.Apply(ir.LowerCT(n, m, ir.CTConfig{P: p, Mu: mu, LeftTree: lt, RightTree: rt}))
		if err != nil {
			continue
		}
		exe, err := ir.NewExecutor(prog, backend)
		if err != nil {
			continue
		}
		d := t.measureExecutor(exe, x, y)
		t.trace("parallel-candidate", n, fmt.Sprintf("%d·%d", m, n/m), d)
		if choice.Exec == nil || d < choice.ParTime {
			choice.Exec, choice.Split, choice.Left, choice.Right = exe, m, lt, rt
			choice.ParTime = d
		}
	}
	if choice.Exec != nil && choice.ParTime >= choice.SeqTime {
		// Sequential wins: drop the parallel executor.
		choice.Exec, choice.Split, choice.Left, choice.Right = nil, 0, nil, nil
	}
	if choice.Exec != nil {
		t.trace("parallel-winner", n, fmt.Sprintf("%d·%d", choice.Split, n/choice.Split), choice.ParTime)
	} else {
		t.trace("parallel-winner", n, "sequential", choice.SeqTime)
	}
	return choice, nil
}

// measureExecutor times one exe.Transform(y, x) under the tuner's timer and
// deadline, counting it as a considered and measured candidate.
func (t *Tuner) measureExecutor(exe *ir.Executor, x, y []complex128) time.Duration {
	mctx, cancel := t.measureContext()
	defer cancel()
	t.stats.Considered++
	t.stats.Measured++
	return MeasureCtx(mctx, func() { exe.Transform(y, x) }, t.Timer)
}

// parallelSplits lists every m with pµ | m and pµ | n/m, most balanced first.
func parallelSplits(n, p, mu int) []int {
	q := p * mu
	var out []int
	for m := q; m*q <= n; m += q {
		if n%m == 0 && (n/m)%q == 0 {
			out = append(out, m)
		}
	}
	// Sort by balance |m - n/m| ascending so the most balanced split is
	// tried first. TuneParallel bounds how many are measured (the model's
	// top-k, or the first five without a model).
	sort.Slice(out, func(i, j int) bool {
		bi := abs(out[i] - n/out[i])
		bj := abs(out[j] - n/out[j])
		return bi < bj
	})
	return out
}

func abs(v int) int {
	if v < 0 {
		return -v
	}
	return v
}
