package ir

import (
	"context"
	"fmt"
	"runtime/debug"
	"runtime/pprof"
	"strconv"
	"sync"
	"time"

	"spiralfft/internal/codelet"
	"spiralfft/internal/exec"
	"spiralfft/internal/faultinject"
	"spiralfft/internal/metrics"
	"spiralfft/internal/smp"
	"spiralfft/internal/twiddle"
)

// Executor runs a lowered Program through the existing codelets and the smp
// threading substrate. It is the production backend of the IR: all seven
// public plan families execute through it.
//
// An Executor is safe for concurrent use: all per-call state (temp buffers,
// per-worker scratch, barrier) lives in execution contexts checked out of a
// pool, and dispatch through a non-concurrent backend (the pooled
// spin-barrier substrate) is serialized on an internal mutex. Programs
// containing Generic ops are the one exception: their block closures own
// captured buffers, so the executor serializes every call on such programs
// regardless of backend (root plans never lower to Generic, so the
// production paths are unaffected).
type Executor struct {
	prog *Program
	n, p int
	// srcLen and dstLen are the program's buffer lengths Transform checks.
	srcLen, dstLen int
	backend        smp.Backend
	// workers[w] is worker w's fully compiled op sequence, with barrier
	// markers inlined at the positions of the program's Barrier nodes (every
	// worker carries the same barrier count — that is what makes the shared
	// SpinBarrier protocol line up).
	workers [][]compiledOp
	need    int // per-worker scratch length
	// ctxs pools per-call execution contexts so concurrent Transforms never
	// share buffers (and the steady state allocates nothing).
	ctxs sync.Pool
	// serial marks dispatches that must not overlap: non-concurrent backends,
	// and any program with Generic ops (captured block buffers). regionMu
	// serializes them; body/cur are the persistent region closure and its
	// per-call context (so a serialized dispatch allocates no closure).
	serial   bool
	regionMu sync.Mutex
	body     func(w int)
	cur      *execCtx
	// numBarriers is the per-worker barrier count (every worker carries the
	// same count); the panic-containment path uses it to drain a panicking
	// worker's remaining barrier arrivals so the other workers' protocol
	// still lines up.
	numBarriers int
	// barrierNs accumulates worker time spent in barriers (recorded only
	// while metrics are enabled).
	barrierNs metrics.Counter
}

// execCtx is the per-call mutable state of one Executor.Transform. Each
// context owns its barrier so two concurrent calls on a concurrent-safe
// backend cannot corrupt each other's barrier protocol.
type execCtx struct {
	temps    [][]complex128
	scratch  [][]complex128
	barrier  *smp.SpinBarrier
	dst, src []complex128
	// cancel, when non-nil, is the TransformCtx context: workers poll it at
	// region boundaries (after every barrier) and abandon the remaining
	// regions once it is cancelled, so cancellation latency is one region.
	cancel context.Context
}

// compiledOp is the flattened, dispatch-ready form of one Op (or barrier).
// Flat struct + kind switch keeps the hot loop free of interface dispatch.
type compiledOp struct {
	kind     opKind
	dst, src Buf
	doff, ds int
	soff, ss int
	n        int
	seq      *exec.Seq    // opCodelet, opCodeletGen
	tw       []complex128 // codelet input scale / Scale weights
	idx      []int32      // opPermute
	fn       BlockFn      // opGeneric
	// opTranspose geometry: rows×cols source, destination columns [lo,hi),
	// tile×tile cache blocking.
	rows, cols     int
	lo, hi, tile   int
	den, row, roff int     // opCodeletGen: generated twiddle row parameters
	scale          float64 // opWHT: output scale (1 when unscaled)
	// v is opWHT's row width and a codelet call's panel width; dv and sv
	// are a panel's lane strides, and a pair's lane offsets.
	v, dv, sv int
	// opCodeletPair: the leaf kernel's two-lane entry point and lane 1's
	// input scale (tw is lane 0's).
	pair codelet.Func2
	tw1  []complex128
}

type opKind uint8

const (
	opBarrier     opKind = iota
	opCodelet            // strided sub-DFT with its input scale Tw, if any
	opCodeletPair        // two adjacent leaf opCodelets as DFT_n ⊗ I_2
	opCodeletGen         // sub-DFT scaled by a runtime-generated twiddle row
	opWHT                // WHT_N ⊗ I_V: the first pass reads src, the rest run in place
	opTranspose          // cache-blocked tile transpose
	opUntangle           // real-input spectrum untangling over bin pairs
	opRetangle           // its inverse
	opScale
	opPermute
	opCopy
	opGeneric
)

// DefaultTransposeTile is the fallback Transpose tile edge when the lowering
// did not choose one: 32×32 complex128 tiles (2 × 16 KiB footprint) fit the
// source and destination tile in a typical 32 KiB L1.
const DefaultTransposeTile = 32

// NewExecutor compiles prog for execution on backend. For P > 1 the backend
// is required and must have exactly P workers; for P == 1 it may be nil (the
// executor runs inline). The executor does not own the backend: it is never
// closed here.
func NewExecutor(prog *Program, backend smp.Backend) (*Executor, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	if prog.P > 1 {
		if backend == nil {
			return nil, fmt.Errorf("ir: NewExecutor needs a backend for p=%d", prog.P)
		}
		if backend.Workers() != prog.P {
			return nil, fmt.Errorf("ir: backend has %d workers, program wants %d", backend.Workers(), prog.P)
		}
	}
	e := &Executor{
		prog:    prog,
		n:       prog.N,
		p:       prog.P,
		srcLen:  prog.BufLen(BufSrc),
		dstLen:  prog.BufLen(BufDst),
		backend: backend,
		workers: make([][]compiledOp, prog.P),
	}
	// Size each worker's op list up front: its ops plus one marker per
	// barrier, so compiling a large program does not regrow the lists.
	for w := range e.workers {
		size := 0
		for _, nd := range prog.Nodes {
			if r, ok := nd.(*Region); ok {
				size += len(r.Workers[w])
			} else {
				size++
			}
		}
		e.workers[w] = make([]compiledOp, 0, size)
	}
	seqs := make(map[*exec.Tree]*exec.Seq)
	hasGeneric := false
	for _, nd := range prog.Nodes {
		switch t := nd.(type) {
		case Barrier:
			e.numBarriers++
			for w := 0; w < prog.P; w++ {
				e.workers[w] = append(e.workers[w], compiledOp{kind: opBarrier})
			}
		case *Region:
			for w, ops := range t.Workers {
				for i, op := range ops {
					if i > 0 && pairOps(e.workers[w], ops[i-1], op) {
						continue
					}
					co, need, err := compileOp(op, seqs)
					if err != nil {
						return nil, fmt.Errorf("ir: region %q worker %d: %w", t.Name, w, err)
					}
					if co.kind == opGeneric {
						hasGeneric = true
					}
					if need > e.need {
						e.need = need
					}
					e.workers[w] = append(e.workers[w], co)
				}
			}
		}
	}
	if e.need == 0 {
		e.need = 1
	}
	e.serial = hasGeneric || (backend != nil && !backend.Concurrent())
	p, need, tempLens := prog.P, e.need, prog.Temps
	e.ctxs.New = func() any {
		c := &execCtx{
			temps:   make([][]complex128, len(tempLens)),
			scratch: make([][]complex128, p),
			barrier: smp.NewSpinBarrier(p),
		}
		for i, ln := range tempLens {
			c.temps[i] = make([]complex128, ln)
		}
		for w := range c.scratch {
			c.scratch[w] = make([]complex128, need)
		}
		return c
	}
	e.body = func(w int) { e.runWorker(w, e.cur) }
	return e, nil
}

// pairOps folds op into the last op of list, the compiled form of prev, as
// lane 1 of one pair call (DFT_n ⊗ I_2) and reports whether it did. Both
// must be single-lane calls of one leaf tree on the same buffers at the
// same strides, both with or without an input scale, and neither may write
// what the other reads or writes: the pair then computes what the two
// calls do in order. The lane offsets are the differences of the two
// calls' offsets.
func pairOps(list []compiledOp, prev, op Op) bool {
	a, ok1 := prev.(CodeletCall)
	b, ok2 := op.(CodeletCall)
	last := &list[len(list)-1]
	if !ok1 || !ok2 || last.kind != opCodelet || a.Tree != b.Tree || !a.Tree.Leaf || a.V > 1 || b.V > 1 ||
		a.Dst != b.Dst || a.Src != b.Src || a.DS != b.DS || a.SS != b.SS || (a.Tw == nil) != (b.Tw == nil) {
		return false
	}
	fa, fb := a.Footprint(), b.Footprint()
	if overlaps(&fa.Write, &fb.Read) || overlaps(&fa.Write, &fb.Write) || overlaps(&fb.Write, &fa.Read) {
		return false
	}
	k, _ := last.seq.Leaf()
	last.kind, last.pair, last.tw1 = opCodeletPair, k.Apply2, b.Tw
	last.dv, last.sv = b.DOff-a.DOff, b.SOff-a.SOff
	return true
}

// overlaps reports whether two accesses share an element, reading BufSrc
// and BufDst as one buffer: a transform may run in place.
func overlaps(x, y *Access) bool {
	class := func(b Buf) Buf {
		if b == BufSrc {
			return BufDst
		}
		return b
	}
	if class(x.Buf) != class(y.Buf) {
		return false
	}
	if xs, ys := x.Spans[0], y.Spans[0]; x.Spans[1].Rows == 0 && y.Spans[1].Rows == 0 && x.Idx == nil && y.Idx == nil &&
		xs.Width == 1 && ys.Width == 1 && xs.Stride == ys.Stride && xs.Stride != 0 {
		// Two runs at one stride meet when their offsets differ by k
		// strides with -ys.Rows < k < xs.Rows.
		d := ys.Off - xs.Off
		k := d / xs.Stride
		return d%xs.Stride == 0 && k > -ys.Rows && k < xs.Rows
	}
	if xlo, xhi := x.bounds(); xlo <= xhi {
		if ylo, yhi := y.bounds(); ylo > yhi || xhi < ylo || yhi < xlo {
			return false
		}
	}
	hit := false
	x.each(func(i int) { hit = hit || y.has(i) })
	return hit
}

// compileOp lowers one IR op to its dispatch-ready form and reports the
// scratch it needs. Seq plans are shared across ops referring to the same
// tree value (LowerCT emits one tree per stage).
func compileOp(op Op, seqs map[*exec.Tree]*exec.Seq) (compiledOp, int, error) {
	switch t := op.(type) {
	case CodeletCall:
		s := seqs[t.Tree]
		if s == nil {
			var err error
			s, err = exec.NewSeq(t.Tree)
			if err != nil {
				return compiledOp{}, 0, err
			}
			seqs[t.Tree] = s
		}
		co := compiledOp{
			kind: opCodelet,
			dst:  t.Dst, src: t.Src,
			doff: t.DOff, ds: t.DS,
			soff: t.SOff, ss: t.SS,
			n: t.Tree.N, seq: s, tw: t.Tw,
			v: max(t.V, 1), dv: t.DV, sv: t.SV,
		}
		if t.Tw != nil {
			return co, co.panelLen() + s.ScaledScratchLen(), nil
		}
		return co, co.panelLen() + s.ScratchLen(), nil
	case CodeletGenCall:
		s := seqs[t.Tree]
		if s == nil {
			var err error
			s, err = exec.NewSeq(t.Tree)
			if err != nil {
				return compiledOp{}, 0, err
			}
			seqs[t.Tree] = s
		}
		co := compiledOp{
			kind: opCodeletGen,
			dst:  t.Dst, src: t.Src,
			doff: t.DOff, ds: t.DS,
			soff: t.SOff, ss: t.SS,
			n: t.Tree.N, seq: s,
			den: t.TwDen, row: t.TwRow, roff: t.TwOff,
			v: max(t.V, 1), dv: t.DV, sv: t.SV,
		}
		// The staged panel, if any, lives in scratch first, then the
		// generated row, then the call's own scratch.
		return co, co.panelLen() + t.Tree.N + s.ScaledScratchLen(), nil
	case Transpose:
		co := compiledOp{
			kind: opTranspose,
			dst:  t.Dst, src: t.Src,
			doff: t.DOff, soff: t.SOff,
			rows: t.Rows, cols: t.Cols,
			lo: t.Lo, hi: t.Hi, tile: t.Tile,
		}
		if co.tile <= 0 {
			co.tile = DefaultTransposeTile
		}
		return co, 0, nil
	case WHTCall:
		co := compiledOp{
			kind: opWHT,
			dst:  t.Dst, src: t.Src,
			doff: t.DOff, ds: t.DS,
			soff: t.SOff, ss: t.SS,
			n: t.N, v: t.Width(), scale: 1,
		}
		if t.Scale != 0 {
			co.scale = t.Scale
		}
		return co, 0, nil
	case Untangle:
		co := compiledOp{
			kind: opUntangle,
			dst:  t.Dst, src: t.Src,
			n: t.H, lo: t.Lo, hi: t.Hi, tw: t.W,
		}
		if t.Inverse {
			co.kind = opRetangle
		}
		return co, 0, nil
	case Scale:
		return compiledOp{
			kind: opScale,
			dst:  t.Dst, src: t.Src,
			doff: t.Off, soff: t.Off,
			n: len(t.W), tw: t.W,
		}, 0, nil
	case Permute:
		return compiledOp{
			kind: opPermute,
			dst:  t.Dst, src: t.Src,
			doff: t.Lo, n: len(t.Idx), idx: t.Idx,
		}, 0, nil
	case Copy:
		return compiledOp{
			kind: opCopy,
			dst:  t.Dst, src: t.Src,
			doff: t.DOff, soff: t.SOff, n: t.N,
		}, 0, nil
	case Generic:
		fn, err := CompileBlock(t.F)
		if err != nil {
			return compiledOp{}, 0, err
		}
		return compiledOp{
			kind: opGeneric,
			dst:  t.Dst, src: t.Src,
			doff: t.DOff, soff: t.SOff,
			n: t.F.Size(), fn: fn,
		}, 0, nil
	default:
		return compiledOp{}, 0, fmt.Errorf("unknown op type %T", op)
	}
}

// N returns the transform size.
func (e *Executor) N() int { return e.n }

// Workers returns the program's worker count.
func (e *Executor) Workers() int { return e.p }

// Program returns the program the executor was compiled from.
func (e *Executor) Program() *Program { return e.prog }

// Backend returns the executor's threading backend (nil for P == 1).
func (e *Executor) Backend() smp.Backend { return e.backend }

// BarrierWait returns the total time workers have spent in barriers.
// Accumulated only while metrics are enabled.
func (e *Executor) BarrierWait() time.Duration {
	return time.Duration(e.barrierNs.Load())
}

// Transform computes dst = program(src). dst == src is allowed whenever the
// lowering permits it (every Lower* in this package does). Transform is safe
// for concurrent use; see the type comment for the Generic-op exception.
//
// A panic inside a region body (a codelet, an injected fault) does not
// crash the worker pool or wedge the barrier protocol: the panicking worker
// drains its remaining barrier arrivals, the region joins normally, and
// Transform re-panics one representative *smp.WorkerPanic on the caller's
// goroutine. The executor remains fully usable afterwards.
func (e *Executor) Transform(dst, src []complex128) {
	e.run(nil, dst, src)
}

// TransformCtx is Transform with cooperative cancellation: an already
// cancelled context returns its error without running any region, and a
// context cancelled mid-transform is observed at the next region boundary
// (dst is then left partially written — a deterministic prefix of the
// program's regions). The returned error is ctx.Err() or nil.
func (e *Executor) TransformCtx(ctx context.Context, dst, src []complex128) error {
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			metrics.CancelledTransforms.Inc()
			return err
		}
	}
	e.run(ctx, dst, src)
	if ctx != nil {
		if err := ctx.Err(); err != nil {
			metrics.CancelledTransforms.Inc()
			return err
		}
	}
	return nil
}

func (e *Executor) run(cctx context.Context, dst, src []complex128) {
	if len(dst) != e.dstLen || len(src) != e.srcLen {
		panic(fmt.Sprintf("ir: Transform length mismatch: program dst %d, src %d; got dst %d, src %d",
			e.dstLen, e.srcLen, len(dst), len(src)))
	}
	ctx := e.ctxs.Get().(*execCtx)
	ctx.dst, ctx.src, ctx.cancel = dst, src, cctx
	// The context is returned to the pool even when a contained region
	// panic propagates: the barrier protocol has fully joined by then, so
	// the buffers are quiescent and safe to reuse.
	defer func() {
		ctx.dst, ctx.src, ctx.cancel = nil, nil, nil
		e.ctxs.Put(ctx)
	}()
	if metrics.Enabled() {
		pprof.Do(context.Background(),
			pprof.Labels("spiralfft.region", e.prog.Name, "spiralfft.n", strconv.Itoa(e.n)),
			func(context.Context) { e.dispatch(ctx) })
	} else {
		e.dispatch(ctx)
	}
}

// dispatch runs the whole program — all regions, one backend.Run — so the
// inter-stage barriers are the cheap in-region spin barriers rather than
// full region joins.
// Serialization state is released via defer so a contained panic cannot
// leave the executor wedged.
func (e *Executor) dispatch(ctx *execCtx) {
	if e.p == 1 {
		if e.serial {
			e.regionMu.Lock()
			defer e.regionMu.Unlock()
		}
		// Wrap inline panics as *smp.WorkerPanic so the containment
		// contract is uniform with the backend-dispatched paths.
		defer func() {
			if r := recover(); r != nil {
				if wp, ok := r.(*smp.WorkerPanic); ok {
					panic(wp)
				}
				metrics.RecoveredPanics.Inc()
				panic(&smp.WorkerPanic{Worker: 0, Value: r, Stack: debug.Stack()})
			}
		}()
		e.runWorker(0, ctx)
		return
	}
	if e.serial {
		e.regionMu.Lock()
		defer func() {
			e.cur = nil
			e.regionMu.Unlock()
		}()
		e.cur = ctx
		e.backend.Run(e.body)
	} else {
		e.backend.Run(func(w int) { e.runWorker(w, ctx) })
	}
}

// buf resolves a Buf id against the call's context.
func (ctx *execCtx) buf(b Buf) []complex128 {
	switch b {
	case BufSrc:
		return ctx.src
	case BufDst:
		return ctx.dst
	default:
		return ctx.temps[b.TempIndex()]
	}
}

// runWorker executes worker w's compiled op sequence on the buffers of the
// call's execution context.
//
// Fault containment: if an op panics, the worker drains its remaining
// barrier arrivals before re-throwing, so the other workers — which keep
// waiting at the shared SpinBarrier — always see a complete protocol and
// the region joins. Cancellation: with a TransformCtx context installed,
// the worker polls ctx.cancel at every region boundary and drains out early
// once it is cancelled.
func (e *Executor) runWorker(w int, ctx *execCtx) {
	passed := 0 // barriers this worker has arrived at
	if e.p > 1 {
		defer func() {
			if r := recover(); r != nil {
				for ; passed < e.numBarriers; passed++ {
					ctx.barrier.Wait()
				}
				panic(r)
			}
		}()
	}
	faultinject.Region(w)
	scratch := ctx.scratch[w]
	ops := e.workers[w]
	for i := range ops {
		op := &ops[i]
		switch op.kind {
		case opBarrier:
			if e.p == 1 {
				if cc := ctx.cancel; cc != nil && cc.Err() != nil {
					return
				}
				faultinject.Region(w)
				continue
			}
			bs := metrics.Now()
			ctx.barrier.Wait()
			passed++
			if !bs.IsZero() {
				e.barrierNs.Add(int64(time.Since(bs)))
			}
			if cc := ctx.cancel; cc != nil && cc.Err() != nil {
				// Cancelled: skip the remaining regions, draining the
				// remaining barrier arrivals so workers that race past this
				// check still join cleanly.
				for ; passed < e.numBarriers; passed++ {
					ctx.barrier.Wait()
				}
				return
			}
			faultinject.Region(w)
		case opCodelet:
			if op.v > 1 {
				runPanel(op, ctx.buf(op.dst), ctx.buf(op.src), scratch)
				continue
			}
			op.seq.TransformStrided(ctx.buf(op.dst), op.doff, op.ds, ctx.buf(op.src), op.soff, op.ss, op.tw, scratch)
		case opCodeletPair:
			op.pair(ctx.buf(op.dst), op.doff, op.ds, op.dv, ctx.buf(op.src), op.soff, op.ss, op.sv, op.tw, op.tw1)
		case opCodeletGen:
			if op.v > 1 {
				runPanel(op, ctx.buf(op.dst), ctx.buf(op.src), scratch)
				continue
			}
			w := scratch[:op.n]
			twiddle.FillRow(w, op.den, op.row, op.roff)
			op.seq.TransformStrided(ctx.buf(op.dst), op.doff, op.ds, ctx.buf(op.src), op.soff, op.ss, w, scratch[op.n:])
		case opTranspose:
			dst, src := ctx.buf(op.dst), ctx.buf(op.src)
			rows, cols, tile := op.rows, op.cols, op.tile
			for jb := op.lo; jb < op.hi; jb += tile {
				jmax := jb + tile
				if jmax > op.hi {
					jmax = op.hi
				}
				for ib := 0; ib < rows; ib += tile {
					imax := ib + tile
					if imax > rows {
						imax = rows
					}
					for j := jb; j < jmax; j++ {
						drow := dst[op.doff+j*rows+ib : op.doff+j*rows+imax]
						srow := src[op.soff+j:]
						for i := range drow {
							drow[i] = srow[(ib+i)*cols]
						}
					}
				}
			}
		case opWHT:
			dst, src := ctx.buf(op.dst)[op.doff:], ctx.buf(op.src)[op.soff:]
			if op.ds != op.ss { // rows at two strides: gather them into dst
				for i := 0; i < op.n; i++ {
					copy(dst[i*op.ds:i*op.ds+op.v], src[i*op.ss:i*op.ss+op.v])
				}
				src = dst
			}
			exec.WHTRows(dst, src, op.n, op.ds, op.v, op.scale)
		case opUntangle:
			untangle(ctx.buf(op.dst), ctx.buf(op.src), op.n, op.lo, op.hi, op.tw)
		case opRetangle:
			retangle(ctx.buf(op.dst), ctx.buf(op.src), op.n, op.lo, op.hi, op.tw)
		case opScale:
			dst, src := ctx.buf(op.dst), ctx.buf(op.src)
			for i, c := range op.tw {
				dst[op.doff+i] = src[op.soff+i] * c
			}
		case opPermute:
			dst, src := ctx.buf(op.dst), ctx.buf(op.src)
			out := dst[op.doff : op.doff+op.n]
			for t, s := range op.idx {
				out[t] = src[s]
			}
		case opCopy:
			copy(ctx.buf(op.dst)[op.doff:op.doff+op.n], ctx.buf(op.src)[op.soff:op.soff+op.n])
		case opGeneric:
			op.fn(ctx.buf(op.dst)[op.doff:op.doff+op.n], ctx.buf(op.src)[op.soff:op.soff+op.n])
		}
	}
}

// panelLen is the scratch a panel call stages its rows sides in: one block
// of v lanes of n elements (none for a plain call).
func (op *compiledOp) panelLen() int {
	if op.v > 1 {
		return op.n * op.v
	}
	return 0
}

// runPanel runs a panel codelet call (see CodeletCall). A rows side is
// staged through g, a block in scratch holding the side's v lanes
// lane-major (lane l contiguous at g[l·n : (l+1)·n]): a rows input is
// gathered before the first transform and a rows output scattered after
// the last, so the call may run in place, every row is visited once, and
// each lane transform runs at stride 1 on its side of g. A lanes side is
// read or written where it lies. Lane l of a generated call scales by
// twiddle row row+l.
func runPanel(op *compiledOp, dst, src, scratch []complex128) {
	n, v := op.n, op.v
	g, rest := scratch[:n*v], scratch[n*v:]
	w := op.tw
	if op.kind == opCodeletGen {
		w, rest = rest[:n], rest[n:]
	}
	rowsIn, rowsOut := abs(op.sv) == 1, abs(op.dv) == 1
	if rowsIn {
		gatherLanes(g, src, op.soff, op.ss, op.sv, n)
	}
	for l := 0; l < v; l++ {
		if op.kind == opCodeletGen {
			twiddle.FillRow(w, op.den, op.row+l, op.roff)
		}
		in, ioff, is := src, op.soff+l*op.sv, op.ss
		if rowsIn {
			in, ioff, is = g, l*n, 1
		}
		out, ooff, os := dst, op.doff+l*op.dv, op.ds
		if rowsOut {
			out, ooff, os = g, l*n, 1
		}
		op.seq.TransformStrided(out, ooff, os, in, ioff, is, w, rest)
	}
	if rowsOut {
		scatterLanes(dst, g, op.doff, op.ds, op.dv, n)
	}
}

// gatherLanes copies the n rows of a rows side into g lane-major: lane l
// of row j, x[off + j·s + l·ls] with ls = ±1, goes to g[l·n + j]. It moves
// four rows at a time, so each lane receives four adjacent elements, one
// whole 64-byte line of complex128, per visit.
func gatherLanes(g, x []complex128, off, s, ls, n int) {
	v := len(g) / n
	off, first, step := laneOrder(off, ls, v, n)
	j := 0
	for ; j+4 <= n; j += 4 {
		b := off + j*s
		r0 := x[b : b+v]
		r1 := x[b+s : b+s+v][:len(r0)]
		r2 := x[b+2*s : b+2*s+v][:len(r0)]
		r3 := x[b+3*s : b+3*s+v][:len(r0)]
		gi := first + j
		for k := range r0 {
			d := g[gi : gi+4 : gi+4]
			d[0], d[1], d[2], d[3] = r0[k], r1[k], r2[k], r3[k]
			gi += step
		}
	}
	for ; j < n; j++ {
		gi := first + j
		for _, c := range x[off+j*s : off+j*s+v] {
			g[gi] = c
			gi += step
		}
	}
}

// scatterLanes is gatherLanes' inverse: it copies g's lanes back out to
// the rows of x.
func scatterLanes(x, g []complex128, off, s, ls, n int) {
	v := len(g) / n
	off, first, step := laneOrder(off, ls, v, n)
	j := 0
	for ; j+4 <= n; j += 4 {
		b := off + j*s
		r0 := x[b : b+v]
		r1 := x[b+s : b+s+v][:len(r0)]
		r2 := x[b+2*s : b+2*s+v][:len(r0)]
		r3 := x[b+3*s : b+3*s+v][:len(r0)]
		gi := first + j
		for k := range r0 {
			d := g[gi : gi+4 : gi+4]
			r0[k], r1[k], r2[k], r3[k] = d[0], d[1], d[2], d[3]
			gi += step
		}
	}
	for ; j < n; j++ {
		gi := first + j
		r := x[off+j*s : off+j*s+v]
		for k := range r {
			r[k] = g[gi]
			gi += step
		}
	}
}

// laneOrder walks a rows side of v lanes (lane stride ls = ±1) in memory
// order: row j's elements are x[off + j·s : +v] for the returned off, and
// the k-th of them belongs at g[first + j + k·step].
func laneOrder(off, ls, v, n int) (int, int, int) {
	if ls < 0 {
		return off - (v - 1), (v - 1) * n, -n
	}
	return off, 0, n
}
