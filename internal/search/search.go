package search

import (
	"context"
	"fmt"
	"math"
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
	// StrategyEvolve evolves a population of random trees by crossover and
	// mutation under measured fitness (STEER, ref. [24] of the paper).
	StrategyEvolve
)

var strategyNames = [...]string{"dp", "estimate", "exhaustive", "random", "evolve"}

// String names the strategy.
func (s Strategy) String() string {
	if s < 0 || int(s) >= len(strategyNames) {
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
	return strategyNames[s]
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
	// model. StrategyExhaustive, StrategyRandom and StrategyEvolve do not
	// rank: they measure every tree they generate.
	Model *cost.Model
	// TopK bounds how many ranked candidates are measured per size (default
	// DefaultTopK; ≤ 0 disables pruning, except that the four-step search
	// still measures at most FourStepTopK).
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
	// Considered counts candidate trees examined across all searches: each
	// one measured, pruned, or (StrategyEstimate) modeled.
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
	if t.expired() {
		// Out of time before this size was searched: the balanced radix tree
		// is always admissible and a sound untuned default. Searching anyway
		// would only enumerate candidates, and without the memo (truncated
		// results are not kept) the recursion over the factors' factors
		// grows exponentially.
		return Result{Tree: exec.RadixTree(n)}
	}
	t.stats.Searches++
	var r Result
	if t.Strategy == StrategyEvolve {
		r = t.evolve(n)
	} else {
		cands, s := t.treeSearch(n)
		r.Tree, r.Time, _ = pick(t, cands, s)
		r.Candidates = len(cands)
	}
	if r.Tree == nil {
		// The deadline preempted every candidate.
		r.Tree = exec.RadixTree(n)
	}
	if !t.expired() {
		t.memo[n] = r
	}
	t.trace("winner", n, r.Tree.String(), r.Time)
	return r
}

// pick is the tuner's one search loop, behind every decision it makes:
// rank the candidates with the model, shortlist the cheapest, time each
// survivor under the search deadline and keep the fastest. It holds the
// package's only Measured and Pruned counts, and every candidate it times,
// prunes or models emits exactly one trace event. It ranks cands in place.
// ok is false when no
// candidate was timed (the deadline expired first or every build failed);
// each caller then falls back to its own default.
func pick[C any](t *Tuner, cands []C, s scan[C]) (best C, d time.Duration, ok bool) {
	var scores []float64
	if s.score != nil {
		scores = make([]float64, len(cands))
		for i, c := range cands {
			scores[i] = s.score(c)
		}
		// Stable, so model ties keep candidate order.
		sort.Stable(byScore[C]{cands, scores})
	}
	if s.build == nil {
		for i, c := range cands {
			t.stats.Considered++
			t.trace(s.kind+"candidate", s.n, s.label(c), modeled(scores[i]))
		}
		if len(cands) == 0 {
			return best, 0, false
		}
		return cands[0], modeled(scores[0]), true
	}
	if s.topK > 0 && len(cands) > s.topK {
		for i, c := range cands[s.topK:] {
			t.stats.Considered++
			t.stats.Pruned++
			t.trace(s.kind+"pruned", s.n, s.label(c), modeled(scores[s.topK+i]))
		}
		cands = cands[:s.topK]
	}
	timer := s.timer
	if timer == (TimerConfig{}) {
		timer = t.Timer
	}
	for _, c := range cands {
		if t.expired() {
			break
		}
		run, err := s.build(c)
		if err != nil {
			continue
		}
		ctx, cancel := t.measureContext()
		cd := MeasureCtx(ctx, run, timer)
		cancel()
		t.stats.Considered++
		t.stats.Measured++
		t.trace(s.kind+"candidate", s.n, s.label(c), cd)
		if !ok || cd < d {
			best, d, ok = c, cd, true
		}
	}
	return best, d, ok
}

// scan describes one search to pick: how candidates of type C are named,
// scored and timed.
type scan[C any] struct {
	// kind prefixes the trace event kinds: "" for the tree searches, or
	// "cutoff-", "parallel-", "fourstep-".
	kind string
	n    int
	// label names a candidate in its trace event.
	label func(C) string
	// score is a candidate's modeled cost in nanoseconds. With a score pick
	// ranks the candidates cheapest first; without one it keeps their order
	// and prunes nothing.
	score func(C) float64
	// topK bounds how many ranked candidates are timed (≤ 0: all of them).
	topK int
	// build readies a candidate and returns the call to time. Without one
	// the search is model-only (and needs a score): nothing runs and the
	// cheapest candidate wins.
	build func(C) (func(), error)
	// timer, when non-zero, replaces Tuner.Timer.
	timer TimerConfig
}

// byScore sorts candidates by their scores.
type byScore[C any] struct {
	cands  []C
	scores []float64
}

func (b byScore[C]) Len() int           { return len(b.cands) }
func (b byScore[C]) Less(i, j int) bool { return b.scores[i] < b.scores[j] }
func (b byScore[C]) Swap(i, j int) {
	b.cands[i], b.cands[j] = b.cands[j], b.cands[i]
	b.scores[i], b.scores[j] = b.scores[j], b.scores[i]
}

// modeled rounds a modeled cost to a time.Duration, saturating at the
// largest one.
func modeled(ns float64) time.Duration {
	if ns >= float64(math.MaxInt64) {
		return math.MaxInt64
	}
	return time.Duration(ns)
}

// treeSearch lists the strategy's candidate trees for n and how pick
// chooses among them.
func (t *Tuner) treeSearch(n int) ([]*exec.Tree, scan[*exec.Tree]) {
	s := treeScan(n)
	switch t.Strategy {
	case StrategyEstimate:
		// Model only: the first candidate with the least modeled duration.
		s.build = nil
		s.score = func(tr *exec.Tree) float64 { return float64(t.Model.TreeDuration(tr)) }
		return t.candidateTrees(n, t.bestSubtrees), s
	case StrategyExhaustive:
		return allTrees(n, make(map[int][]*exec.Tree)), s
	case StrategyRandom:
		trees := make([]*exec.Tree, t.RandomSamples)
		for i := range trees {
			trees[i] = t.randomTree(n)
		}
		return trees, s
	}
	// Dynamic programming: each split combines the searched trees of its
	// factors, the model ranks the splits and the top k are timed.
	s.score, s.topK = t.Model.Tree, t.TopK
	return t.candidateTrees(n, t.bestSubtrees), s
}

// treeScan times sequential trees of size n as compiled sequential plans.
func treeScan(n int) scan[*exec.Tree] {
	return scan[*exec.Tree]{n: n, label: (*exec.Tree).String, build: seqRun}
}

// seqRun compiles a tree's sequential plan and returns one transform of it.
func seqRun(tr *exec.Tree) (func(), error) {
	s, err := exec.NewSeq(tr)
	if err != nil {
		return nil, err
	}
	x := complexvec.Random(tr.N, 7)
	y := make([]complex128, tr.N)
	scratch := s.NewScratch()
	return func() { s.Transform(y, x, scratch) }, nil
}

// bestSubtrees builds a split candidate from the searched trees of its
// factors.
func (t *Tuner) bestSubtrees(m, k int) (*exec.Tree, *exec.Tree) {
	return t.bestTree(m).Tree, t.bestTree(k).Tree
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

// MeasureTree times one transform of the tree's compiled plan under the
// tuner's timer configuration. Exported for the model-inspection path
// (cmd/tune -rank) and model-fidelity tests; it contributes to the tuner's
// stats like any search measurement.
func (t *Tuner) MeasureTree(tr *exec.Tree) time.Duration {
	t.beginSearch(context.Background())
	defer t.endSearch()
	if _, d, ok := pick(t, []*exec.Tree{tr}, treeScan(tr.N)); ok {
		return d
	}
	return unmeasured
}

// Ranked returns the analytically scored top-split candidate list for n,
// cheapest first, without measuring anything: subtrees are chosen by the
// model alone, so the result is exactly the stage-one ranking a cold-start
// search would shortlist from.
func (t *Tuner) Ranked(n int) []cost.Scored {
	// best picks the model-cheapest tree per size, independent of the
	// measured memo.
	memo := make(map[int]*exec.Tree)
	var sub func(m, k int) (*exec.Tree, *exec.Tree)
	best := func(n int) *exec.Tree {
		if _, ok := memo[n]; !ok {
			memo[n] = t.Model.Rank(t.candidateTrees(n, sub))[0].Tree
		}
		return memo[n]
	}
	sub = func(m, k int) (*exec.Tree, *exec.Tree) { return best(m), best(k) }
	return t.Model.Rank(t.candidateTrees(n, sub))
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
	best := CutoffResult{N: n}
	win, d, ok := pick(t, cands, scan[capped]{
		kind:  "cutoff-",
		n:     n,
		label: func(c capped) string { return fmt.Sprintf("cap=%d %s", c.cap, c.tree) },
		score: func(c capped) float64 { return t.Model.Tree(c.tree) },
		topK:  t.TopK,
		build: func(c capped) (func(), error) {
			best.Candidates++
			return seqRun(c.tree)
		},
	})
	if ok {
		best.Tree, best.Time, best.Cutoff = win.tree, d, win.cap
	} else {
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
	// A candidate is the sequential program (m == 0) or the split m·(n/m),
	// whose executor is built on first timing.
	type split struct {
		m      int
		lt, rt *exec.Tree
		exe    *ir.Executor
	}
	s := scan[*split]{
		kind: "parallel-",
		n:    n,
		label: func(c *split) string {
			if c.m == 0 {
				return "sequential " + seq.Tree.String()
			}
			return fmt.Sprintf("%d·%d", c.m, n/c.m)
		},
		build: func(c *split) (func(), error) {
			if c.exe == nil {
				c.lt, c.rt = t.bestSubtrees(c.m, n/c.m)
				prog, err := finish.Apply(ir.LowerCT(n, c.m, ir.CTConfig{P: p, Mu: mu, LeftTree: c.lt, RightTree: c.rt}))
				if err != nil {
					return nil, err
				}
				if c.exe, err = ir.NewExecutor(prog, backend); err != nil {
					return nil, err
				}
			}
			return func() { c.exe.Transform(y, x) }, nil
		},
	}
	choice.SeqTime = unmeasured
	if _, d, ok := pick(t, []*split{{exe: choice.SeqExec}}, s); ok {
		choice.SeqTime = d
	}
	if p == 1 || backend == nil {
		return choice, nil
	}
	// Rank the admissible splits analytically (radix subtrees — pure model,
	// no measurement) and time only the top-k.
	var splits []*split
	for _, m := range parallelSplits(n, p, mu) {
		splits = append(splits, &split{m: m})
	}
	s.score = func(c *split) float64 { return t.Model.Parallel(n, c.m, p, nil, nil) }
	s.topK = t.TopK
	if win, d, ok := pick(t, splits, s); ok {
		choice.ParTime = d
		if d < choice.SeqTime {
			choice.Exec, choice.Split, choice.Left, choice.Right = win.exe, win.m, win.lt, win.rt
		}
	}
	if choice.Exec != nil {
		t.trace("parallel-winner", n, fmt.Sprintf("%d·%d", choice.Split, n/choice.Split), choice.ParTime)
	} else {
		t.trace("parallel-winner", n, "sequential", choice.SeqTime)
	}
	return choice, nil
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
	// listed first; TuneParallel then ranks them with the model.
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
