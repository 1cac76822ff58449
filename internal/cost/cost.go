// Package cost is the analytic plan-cost model behind two-stage search:
// score every candidate factorization analytically, measure only the top-k.
//
// The model combines the machine description of internal/machine (core count,
// cache-line length µ, cache capacities, sustained flop rate, barrier and
// line-transfer costs) with the actual schedule the executors run:
//
//   - sequential trees are walked exactly the way exec.Seq executes them —
//     every inner node (m × k) over span c pays one write pass and one read
//     pass over its c-element stage buffer plus a twiddle-column pass, all
//     charged at the cache level the span c fits in (small subtrees run hot
//     in L1 even inside a multi-megabyte transform), stage-1 gathers inherit
//     multiplied strides down the right spine and pay per-line fetches once
//     the stride crosses a cache line, and leaves pay their flops plus a
//     per-call overhead;
//
//   - parallel splits are lowered to the two-region IR program of formula
//     (14) (ir.LowerCT) and traced through internal/cachesim, so the modeled
//     cost includes the measured-schedule false-sharing line count and load
//     imbalance, plus the barrier and true-communication terms of
//     internal/machine's platform model.
//
// Costs are returned in modeled nanoseconds. The absolute calibration is
// loose — what the model is for is *ranking* candidates so the tuner measures
// only a handful, and the ranking follows from the overhead structure, not
// from the constants.
package cost

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"spiralfft/internal/cachesim"
	"spiralfft/internal/codelet"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/machine"
)

// Params is the machine description the model scores against.
type Params struct {
	// Cores is the processor count available to parallel plans.
	Cores int
	// Mu is the cache-line length in complex128 elements (64-byte lines → 4).
	Mu int
	// FreqGHz converts cycles to nanoseconds.
	FreqGHz float64
	// FlopsPerCycle is the sustained scalar flop rate per core on FFT code.
	FlopsPerCycle float64
	// L1Bytes and L2Bytes are the per-core data cache capacities.
	L1Bytes, L2Bytes int
	// SharedL2 marks a die-shared L2.
	SharedL2 bool
	// L1LineCycles, L2LineCycles and MemLineCycles price one cache-line
	// access for working sets resident in L1, L2 and memory respectively.
	L1LineCycles, L2LineCycles, MemLineCycles float64
	// CallCycles is the fixed overhead of one kernel invocation.
	CallCycles float64
	// BarrierCycles is one spin-barrier phase across the cooperating cores.
	BarrierCycles float64
	// SpawnCycles is the cost of creating and joining one batch of threads.
	SpawnCycles float64
	// LineTransferCycles is one cache-line ping-pong (false-sharing event).
	LineTransferCycles float64
}

// traceLimit bounds the transform size whose lowered IR program is traced
// through cachesim when scoring parallel splits; beyond it the schedule is
// assumed false-sharing-free and balanced (which the block schedule's
// pµ-divisibility condition guarantees).
const traceLimit = 1 << 16

// withDefaults fills zero fields with safe generic values.
func (p Params) withDefaults() Params {
	if p.Cores < 1 {
		p.Cores = 1
	}
	if p.Mu < 1 {
		p.Mu = 4
	}
	if p.FreqGHz <= 0 {
		p.FreqGHz = 2.5
	}
	if p.FlopsPerCycle <= 0 {
		p.FlopsPerCycle = 1.0
	}
	if p.L1Bytes <= 0 {
		p.L1Bytes = 32 << 10
	}
	if p.L2Bytes <= 0 {
		p.L2Bytes = 1 << 20
	}
	if p.L1LineCycles <= 0 {
		p.L1LineCycles = 1
	}
	if p.L2LineCycles <= 0 {
		p.L2LineCycles = 8
	}
	if p.MemLineCycles <= 0 {
		p.MemLineCycles = 40
	}
	if p.CallCycles <= 0 {
		p.CallCycles = 15
	}
	if p.BarrierCycles <= 0 {
		p.BarrierCycles = 2000
	}
	if p.SpawnCycles <= 0 {
		p.SpawnCycles = 250000
	}
	if p.LineTransferCycles <= 0 {
		p.LineTransferCycles = 100
	}
	return p
}

// HostParams guesses parameters for the current host: the visible CPU count
// with generic cache and overhead constants. Ranking, not absolute accuracy,
// is the goal, so the generic constants suffice.
func HostParams() Params {
	return Params{Cores: machine.Host().NumCPU}.withDefaults()
}

// lineCycles prices one cache-line access for a working set of the given
// size: resident sets stream from L1, medium from L2, large from memory.
func (p Params) lineCycles(workBytes float64) float64 {
	switch {
	case workBytes <= float64(p.L1Bytes):
		return p.L1LineCycles
	case workBytes <= float64(p.L2Bytes):
		return p.L2LineCycles
	default:
		return p.MemLineCycles
	}
}

// workBytes is the working-set footprint of a span of c complex128 elements:
// input, output and stage buffer at 16 bytes each.
func workBytes(c float64) float64 { return 48 * c }

// leafFlops is the arithmetic cost of one leaf invocation: codelets run the
// 5·n·log2(n) fast algorithm, leaves outside the codelet set fall back to the
// naive O(n²) kernel.
func leafFlops(n int) float64 {
	if codelet.HasUnrolled(n) {
		return exec.FlopCount(n)
	}
	return 8 * float64(n) * float64(n)
}

// Model scores candidate factorizations. A Model memoizes per-tree and
// per-split scores and is safe for concurrent use (plan builds from many
// goroutines share the Default model).
type Model struct {
	mu    sync.Mutex
	p     Params
	trees map[string]float64
	pars  map[string]float64
}

// New returns a model for the given machine parameters (zero fields get
// defaults).
func New(p Params) *Model {
	return &Model{
		p:     p.withDefaults(),
		trees: make(map[string]float64),
		pars:  make(map[string]float64),
	}
}

var (
	defaultOnce  sync.Once
	defaultModel *Model
)

// Default returns the process-wide model parameterized for the current host.
func Default() *Model {
	defaultOnce.Do(func() { defaultModel = New(HostParams()) })
	return defaultModel
}

// Params returns the model's machine parameters.
func (m *Model) Params() Params { return m.p }

// Tree returns the modeled sequential runtime of one transform of the tree,
// in nanoseconds.
func (m *Model) Tree(t *exec.Tree) float64 {
	if t == nil {
		return math.Inf(1)
	}
	key := t.String()
	m.mu.Lock()
	if c, ok := m.trees[key]; ok {
		m.mu.Unlock()
		return c
	}
	m.mu.Unlock()
	cycles := m.p.nodeCycles(t, 1, 1)
	// Root I/O: one read pass over src, one write pass over dst, at the
	// whole-transform working set's cache level.
	lc := m.p.lineCycles(workBytes(float64(t.N)))
	cycles += 2 * float64(t.N) / float64(m.p.Mu) * lc
	ns := cycles / m.p.FreqGHz
	m.mu.Lock()
	m.trees[key] = ns
	m.mu.Unlock()
	return ns
}

// TreeDuration is Tree rounded to a time.Duration.
func (m *Model) TreeDuration(t *exec.Tree) time.Duration {
	ns := m.Tree(t)
	if math.IsInf(ns, 1) || ns > float64(math.MaxInt64) {
		return math.MaxInt64
	}
	return time.Duration(ns)
}

// nodeCycles walks the tree exactly the way exec.Seq executes it. cnt is how
// many times this subtree is invoked per transform; inStride is the element
// stride of its input reads (stage-1 gathers inherit the product of ancestor
// split factors down the right spine).
func (p Params) nodeCycles(t *exec.Tree, cnt, inStride float64) float64 {
	n := float64(t.N)
	if t.Leaf {
		cycles := cnt * (leafFlops(t.N)/p.FlopsPerCycle + p.CallCycles)
		if inStride > 1 {
			// Strided gather: once the stride crosses a cache line every
			// load fetches its own line instead of µ elements per line.
			// The gather reaches across a span of n·stride elements, which
			// sets the cache level the extra fetches stream from.
			mu := float64(p.Mu)
			extraLines := cnt * n * (math.Min(inStride, mu) - 1) / mu
			cycles += extraLines * p.lineCycles(workBytes(n*inStride))
		}
		return cycles
	}
	mSplit, kSplit := t.M(), t.K()
	// Stage 1: m invocations of the right subtree, input stride multiplied
	// by m, output contiguous into the stage buffer.
	cycles := p.nodeCycles(t.Right, cnt*float64(mSplit), inStride*float64(mSplit))
	// Stage 2: k invocations of the left subtree reading stage-buffer
	// columns at stride k.
	cycles += p.nodeCycles(t.Left, cnt*float64(kSplit), float64(kSplit))
	// Per-invocation node overhead, hot at this node's own span: the stage
	// buffer is written once and read once (2·c element visits), the twiddle
	// column table is read once (c visits), and the twiddle diagonal costs
	// one complex multiply per element (6 flops).
	lc := p.lineCycles(workBytes(n))
	cycles += cnt * (6*n/p.FlopsPerCycle + 3*n/float64(p.Mu)*lc)
	if !t.Left.Leaf {
		// Composite left children that cannot fuse the twiddle column
		// pre-scale each column into a contiguous buffer: one extra
		// read+write pass over the span.
		cycles += cnt * 2 * n / float64(p.Mu) * lc
	}
	return cycles
}

// Parallel returns the modeled runtime in nanoseconds of the multicore
// Cooley-Tukey split n = mSplit · (n/mSplit) on p workers, with the given
// subtrees (nil means balanced radix trees). The split is lowered to the
// two-region IR program of formula (14) and traced through the cache-line
// simulator, so false sharing and load imbalance of the actual schedule feed
// the score; inadmissible splits return +Inf.
func (m *Model) Parallel(n, mSplit, p int, left, right *exec.Tree) float64 {
	if p < 1 || mSplit < 2 || n%mSplit != 0 {
		return math.Inf(1)
	}
	k := n / mSplit
	key := fmt.Sprintf("%d/%d/%d/%s/%s", n, mSplit, p, treeKey(left), treeKey(right))
	m.mu.Lock()
	if c, ok := m.pars[key]; ok {
		m.mu.Unlock()
		return c
	}
	m.mu.Unlock()

	pr := m.p
	if left == nil {
		left = exec.RadixTree(mSplit)
	}
	if right == nil {
		right = exec.RadixTree(k)
	}
	// Stage arithmetic from the sequential model: stage 1 runs m sub-DFT_k,
	// stage 2 runs k twiddled sub-DFT_m.
	stage1 := float64(mSplit) * m.Tree(right) * pr.FreqGHz
	stage2 := float64(k)*m.Tree(left)*pr.FreqGHz + 6*float64(n)/pr.FlopsPerCycle

	imbalance := 1.0
	sharing := 0.0
	if n <= traceLimit {
		prog, err := ir.LowerCT(n, mSplit, ir.CTConfig{
			P: p, Mu: pr.Mu, LeftTree: left, RightTree: right,
		})
		if err != nil {
			m.mu.Lock()
			m.pars[key] = math.Inf(1)
			m.mu.Unlock()
			return math.Inf(1)
		}
		rep := cachesim.AnalyzeProgram(prog, pr.Mu)
		imbalance = rep.MaxImbalance()
		sharing = float64(rep.TotalFalseSharedLines()) * pr.LineTransferCycles
	} else if q := p * pr.Mu; mSplit%q != 0 || k%q != 0 {
		// Beyond the trace limit only pµ-divisible block splits are
		// admissible (those are false-sharing-free and balanced by the
		// paper's theorem, so skipping the trace loses nothing).
		m.mu.Lock()
		m.pars[key] = math.Inf(1)
		m.mu.Unlock()
		return math.Inf(1)
	}

	compute := (stage1 + stage2) / float64(p) * imbalance
	sync := 2 * pr.BarrierCycles
	// True communication: stage 2 reads columns stage 1 produced on other
	// cores, so (p-1)/p of the stage buffer's lines move between caches
	// once, each a one-shot transfer (~an eighth of a ping-pong).
	comm := float64(n) / float64(pr.Mu) * float64(p-1) / float64(p) * pr.LineTransferCycles / 8
	ns := (compute + sync + comm + sharing) / pr.FreqGHz
	m.mu.Lock()
	m.pars[key] = ns
	m.mu.Unlock()
	return ns
}

// FourStep returns the modeled runtime in nanoseconds of the four-step
// large-N schedule (ir.LowerFourStep) for DFT_n with split n = n1·(n/n1),
// transpose tile edge `tile` (0 = executor default), on p workers with the
// given sub-trees (nil means balanced radix trees). Inadmissible splits
// return +Inf. The schedule is too large to trace through cachesim — that is
// the point of the tier — so the score is purely structural: stage
// arithmetic from the sequential tree model, a per-element gather penalty
// for the strided column reads, blocked-transpose line traffic that degrades
// when a tile pair no longer fits in L1, and the barrier/communication terms
// for p > 1.
func (m *Model) FourStep(n, n1, p, tile int, col, row *exec.Tree) float64 {
	if p < 1 || n1 < 2 || n%n1 != 0 || n/n1 < 2 {
		return math.Inf(1)
	}
	n2 := n / n1
	pr := m.p
	if p > 1 && (n1%pr.Mu != 0 || n2%pr.Mu != 0 || n1 < p || n2 < p) {
		return math.Inf(1)
	}
	if tile <= 0 {
		tile = ir.DefaultTransposeTile
	}
	key := fmt.Sprintf("4step/%d/%d/%d/%d/%s/%s", n, n1, p, tile, treeKey(col), treeKey(row))
	m.mu.Lock()
	if c, ok := m.pars[key]; ok {
		m.mu.Unlock()
		return c
	}
	m.mu.Unlock()

	if col == nil {
		col = exec.RadixTree(n2)
	}
	if row == nil {
		row = exec.RadixTree(n1)
	}
	nf := float64(n)
	mu := float64(pr.Mu)
	// Column stage: n1 sub-DFT_{n2} with contiguous output panels, each
	// gathering its input at stride n1. The gathers are not independent:
	// call i reads src[i + t·n1] and call i+1 the adjacent addresses, so µ
	// consecutive calls share every fetched line — full line reuse, as long
	// as one call's footprint (n2 lines) stays cache-resident until its µ-1
	// neighbours replay it. This is the term that breaks the n1 ↔ n2
	// symmetry: a skewed split with small n2 gathers out of L1, a small n1
	// re-fetches the whole buffer from memory µ times over.
	gatherExtra := 0.0
	switch foot := 64 * float64(n2); {
	case foot <= float64(pr.L1Bytes):
		// Lines survive in L1 across the µ reusing calls: no extra traffic
		// beyond the contiguous read the Tree term already charges.
	case foot <= float64(pr.L2Bytes):
		gatherExtra = nf * (mu - 1) / mu * pr.L2LineCycles
	default:
		gatherExtra = nf * (mu - 1) / mu * pr.MemLineCycles
	}
	colC := float64(n1)*m.Tree(col)*pr.FreqGHz + gatherExtra
	// Row stage: n2 twiddled sub-DFT_{n1} with contiguous I/O. The twiddle
	// row is generated into scratch: ~6 flops/element for the hi·lo products
	// plus 6 for the fused complex multiply.
	rowC := float64(n2)*m.Tree(row)*pr.FreqGHz + 12*nf/pr.FlopsPerCycle
	// Two blocked transposes. A tile pair held in cache (2 · tile² · 16
	// bytes) fetches each line once and uses it fully: 2·n/µ lines per
	// transpose. L2 residency is enough for that reuse — the scattered
	// side's lines only need to survive one tile's worth of rows — so tiles
	// degrade to one line per element only past L2.
	perTranspose := 2 * nf / mu * pr.MemLineCycles
	if 32*tile*tile > pr.L2Bytes {
		perTranspose = (nf + nf/mu) * pr.MemLineCycles
	}
	// Tiny tiles pay the blocked loop's per-tile overhead.
	perTranspose += nf / float64(tile*tile) * pr.CallCycles
	transC := 2 * perTranspose

	cycles := (colC + rowC + transC) / float64(p)
	if p > 1 {
		// Three barriers separate the four stages; each redistribution moves
		// (p-1)/p of the panel's lines between caches once.
		cycles += 3 * pr.BarrierCycles
		cycles += 3 * nf / mu * float64(p-1) / float64(p) * pr.LineTransferCycles / 8
	}
	ns := cycles / pr.FreqGHz
	m.mu.Lock()
	m.pars[key] = ns
	m.mu.Unlock()
	return ns
}

func treeKey(t *exec.Tree) string {
	if t == nil {
		return "-"
	}
	return t.String()
}

// Scored pairs a candidate tree with its modeled cost in nanoseconds.
type Scored struct {
	Tree *exec.Tree
	Cost float64
}

// Duration is the modeled cost rounded to a time.Duration.
func (s Scored) Duration() time.Duration {
	if math.IsInf(s.Cost, 1) || s.Cost > float64(math.MaxInt64) {
		return math.MaxInt64
	}
	return time.Duration(s.Cost)
}

// Rank scores the candidates and returns them cheapest-first. Ties keep
// their input order, as in the tuner's search loop, so the ranking is
// deterministic.
func (m *Model) Rank(trees []*exec.Tree) []Scored {
	out := make([]Scored, 0, len(trees))
	for _, t := range trees {
		if t == nil {
			continue
		}
		out = append(out, Scored{Tree: t, Cost: m.Tree(t)})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Cost < out[j].Cost })
	return out
}
