package main

import (
	"bytes"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"time"

	"spiralfft"
	"spiralfft/internal/bench"
	"spiralfft/internal/codelet"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/smp"
	"spiralfft/internal/twiddle"
	"spiralfft/internal/wire"
)

// traceRun repeats workload w with spans and counters on and returns the
// per-layer metrics. Every layer is measured from outside: by timing the
// benchmark's own calls into the layer's exported functions, and by reading
// counters the library already exports. The spans are written as Chrome
// trace-event JSON next to the benchmark's executable.
func traceRun(w *workload, seed uint64, window time.Duration, log io.Writer) ([]metric, tally, error) {
	procStart := time.Now()
	rec := newRecorder()
	var all tally
	opts := libOptions(2)
	if w.serve {
		opts = daemonOptions()
	}
	inputs := makeInputs(w, seed)
	sess, err := newSession(w, rec)
	if err != nil {
		return nil, all, err
	}
	defer func() {
		if sess != nil {
			sess.close()
		}
	}()
	logPlans(log, sess)
	sched := newScheduler(w, seed)
	warm := runPhase(sess, sched, inputs, warmupFor(window), nil, 0, 0)
	part := window * 3 / 10
	capHint := warm.capFor(part)
	// Spans are kept for every checkEvery-th op; a workload of few, long ops
	// keeps them all, or a run would hold too few to take quantiles from.
	stride := checkEvery
	if warm.rate() < 1000 {
		stride = 1
	}

	// Untraced: the overhead baseline, and the exact counters.
	pool0, mem0 := spiralfft.PoolTotals(), memStats()
	untraced := runPhase(sess, sched, inputs, part, nil, 0, capHint)
	pool1, mem1 := spiralfft.PoolTotals(), memStats()
	traced, barrier, join := tracedPhase(sess, sched, inputs, part, rec, stride, capHint)
	all.merge(warm.tally)
	all.merge(untraced.tally)
	all.merge(traced.tally)

	// libUntraced is the untraced run of the op sequence through the root
	// API at p=2, the base of the speed-up over p=1. On serve-http the
	// daemon calls the root API inside its handler, out of the benchmark's
	// reach, so the sequence is replayed on plans configured as the daemon's.
	libUntraced := untraced
	if w.serve {
		ls, err := newLibSession(w, opts, nil)
		if err != nil {
			return nil, all, err
		}
		lsched := newScheduler(w, seed)
		lwarm := runPhase(ls, lsched, inputs, warmupFor(window), nil, 0, 0)
		libUntraced = runPhase(ls, lsched, inputs, part/3, nil, 0, lwarm.capFor(part/3))
		var libTraced *phase
		libTraced, barrier, join = tracedPhase(ls, lsched, inputs, part/3, rec, stride, lwarm.capFor(part/3))
		ls.close()
		all.merge(lwarm.tally)
		all.merge(libUntraced.tally)
		all.merge(libTraced.tally)
	} else {
		// Server and client numbers come from a short serving probe at
		// serve-http's op mix, so every workload reports every layer.
		probe, err := servingProbe(seed, rec)
		if err != nil {
			return nil, all, err
		}
		all.merge(probe)
	}

	m := []metric{
		{"api.p50_us", "us", spanQuantile(rec.named("api"), 0.5)},
		{"runtime.alloc_bytes_per_op", "bytes", float64(mem1.TotalAlloc-mem0.TotalAlloc) / float64(untraced.attempted)},
		{"smp.regions_per_op", "regions/op", float64(pool1.Regions-pool0.Regions) / float64(untraced.attempted)},
		{"smp.nonspin_wakeup_ratio", "ratio", nonspinRatio(pool0, pool1)},
		{"smp.barrier_wait_us_per_op", "us/op", barrier},
		{"smp.join_wait_us_per_op", "us/op", join},
		{"server.handler_p50_us", "us", spanQuantile(rec.named("server.handler"), 0.5)},
		{"server.handler_p99_us", "us", spanQuantile(rec.named("server.handler"), 0.99)},
		{"client.transport_p50_us", "us", durQuantile(selfTimes(rec.named("client", "server.handler"), "client"), 0.5)},
		{"trace.overhead_pct", "%", (traced.latency(0.5)/untraced.latency(0.5) - 1) * 100},
		{"wall.latency_p50_us", "us", untraced.wallLatency(0.5)},
		{"host.ref_ns", "ns", median(untraced.refs)},
	}

	probes := []func() ([]metric, error){
		func() ([]metric, error) { return planNewMs(w, opts, rec) },
		func() ([]metric, error) { return cacheAcquire(w.kinds[0], opts) },
		func() ([]metric, error) { return staticLayers(w, opts) },
		dispatchAndWire,
	}
	for _, p := range probes {
		pm, err := p()
		if err != nil {
			return nil, all, err
		}
		m = append(m, pm...)
	}

	// The p=1 replay runs after the workload's own plans are closed, so the
	// two working sets of large-p2 never coexist.
	sess.close()
	sess = nil
	p1, err := newLibSession(w, libOptions(1), nil)
	if err != nil {
		return nil, all, err
	}
	p1sched := newScheduler(w, seed)
	p1warm := runPhase(p1, p1sched, inputs, warmupFor(window)/2, nil, 0, 0)
	p1ph := runPhase(p1, p1sched, inputs, part/3, nil, 0, p1warm.capFor(part/3))
	p1.close()
	all.merge(p1warm.tally)
	all.merge(p1ph.tally)
	ms := memStats()
	m = append(m,
		metric{"smp.speedup_vs_p1", "ratio", p1ph.latency(0.5) / libUntraced.latency(0.5)},
		metric{"runtime.gc_pause_us_per_s", "us/s", float64(ms.PauseTotalNs) / 1e3 / time.Since(procStart).Seconds()},
		metric{"max_rel_err", "ratio", all.maxErr},
	)

	exe, err := os.Executable()
	if err != nil {
		return nil, all, err
	}
	path := filepath.Join(filepath.Dir(exe), fmt.Sprintf("trace-%s-%d.json", w.name, seed))
	if err := writeChromeTrace(path, rec.all()); err != nil {
		return nil, all, err
	}
	fmt.Fprintf(log, "trace: %s (%d spans, every %d-th op)\n", path, len(rec.all()), stride)
	return m, all, nil
}

// tracedPhase runs a phase with spans and the library's timed metrics on
// and returns it with the barrier and join wait it accrued, in µs per op.
// The join wait is the process-wide pool total, so it covers plans the
// benchmark does not hold (the daemon's).
func tracedPhase(sess *session, sched *scheduler, inputs [][]input, d time.Duration, rec *recorder, stride, capHint int) (*phase, float64, float64) {
	spiralfft.EnableMetrics()
	defer spiralfft.DisableMetrics()
	join0 := spiralfft.PoolTotals().JoinWait
	var barrier0 time.Duration
	if sess.plans != nil {
		barrier0 = sess.plans.barrierWait()
	}
	ph := runPhase(sess, sched, inputs, d, rec, stride, capHint)
	var barrier time.Duration
	if sess.plans != nil {
		barrier = sess.plans.barrierWait() - barrier0
	}
	join := spiralfft.PoolTotals().JoinWait - join0
	perOp := func(d time.Duration) float64 { return float64(d) / 1e3 / float64(ph.attempted) }
	return ph, perOp(barrier), perOp(join)
}

// servingProbe runs serve-http's op mix for one second with every request
// traced.
func servingProbe(seed uint64, rec *recorder) (tally, error) {
	w, err := lookupWorkload("serve-http")
	if err != nil {
		return tally{}, err
	}
	sess, err := newHTTPSession(w, rec)
	if err != nil {
		return tally{}, err
	}
	defer sess.close()
	inputs := makeInputs(w, seed)
	sched := newScheduler(w, seed)
	warm := runPhase(sess, sched, inputs, 200*time.Millisecond, nil, 0, 0)
	ph := runPhase(sess, sched, inputs, time.Second, rec, 1, warm.capFor(time.Second))
	ph.merge(warm.tally)
	return ph.tally, nil
}

// planNewMs times building the workload's plans (the New*Plan calls alone)
// three times and reports the median build.
func planNewMs(w *workload, o *spiralfft.Options, rec *recorder) ([]metric, error) {
	var builds []float64
	for i := 0; i < 3; i++ {
		before := len(rec.all())
		p, err := buildPlans(w, o, rec)
		if err != nil {
			return nil, err
		}
		p.close()
		var ms float64
		for _, s := range rec.all()[before:] {
			ms += float64(s.dur()) / 1e6
		}
		builds = append(builds, ms)
	}
	return []metric{{"plan.new_ms", "ms", median(builds)}}, nil
}

// cacheAcquire times AcquireFrom on a warm key of a private plan cache: the
// lookup a serving process pays per plan handle.
func cacheAcquire(k opKind, o *spiralfft.Options) ([]metric, error) {
	var c spiralfft.Cache
	defer c.Close()
	var err error
	acquire := func() {
		var p *spiralfft.Plan
		if p, err = spiralfft.AcquireFrom[*spiralfft.Plan](&c, k.n, o); err == nil {
			spiralfft.Release(p)
		}
	}
	d := fastest(acquire)
	if err != nil {
		return nil, err
	}
	return []metric{{"cache.acquire_us", "us", float64(d) / 1e3}}, nil
}

// staticLayers reads the IR programs the workload's plans execute, counts
// their codelet calls and regions per op, and times the leaf codelets, the
// twiddle-row generator and the blocked transpose at the plans' own sizes.
func staticLayers(w *workload, o *spiralfft.Options) ([]metric, error) {
	leafCalls := map[int]float64{} // leaf size → calls per op
	var regions float64
	var split [2]int // the first kind's top-level split
	for k, kind := range w.kinds {
		prog, s, err := programOf(kind, o)
		if err != nil {
			return nil, err
		}
		if k == 0 {
			split = s
		}
		regions += w.share(k) * float64(len(prog.Regions()))
		for _, r := range prog.Regions() {
			for _, ops := range r.Workers {
				for _, op := range ops {
					switch c := op.(type) {
					case ir.CodeletCall:
						addLeaves(leafCalls, c.Tree, w.share(k))
					case ir.CodeletGenCall:
						addLeaves(leafCalls, c.Tree, w.share(k))
					}
				}
			}
		}
	}
	var calls, flops, us float64
	for size, n := range leafCalls {
		kern := codelet.Best(size)
		src, dst := make([]complex128, size), make([]complex128, size)
		src[1%size] = 1
		d := fastest(func() { kern.Apply(dst, 0, 1, src, 0, 1, nil) })
		calls += n
		flops += n * exec.FlopCount(size)
		us += n * float64(d) / 1e3
	}

	// The twiddle-row generator and the transpose, at the first kind's
	// top-level split: the four-step tier's n1×n2 on large-p2.
	n := w.kinds[0].n
	rows := split[0]
	if rows == 0 {
		rows = 1 << ((bits.Len(uint(n)) - 1) / 2)
	}
	cols := n / rows
	row, buf := 0, make([]complex128, rows)
	fill := fastest(func() {
		row = row%max(cols-1, 1) + 1
		twiddle.FillRow(buf, n, row, 0)
	})
	transpose, err := transposeTime(rows, cols)
	if err != nil {
		return nil, err
	}
	return []metric{
		{"codelet.calls_per_op", "calls/op", calls},
		{"codelet.mflops", "pseudo-Mflop/s", flops / us},
		{"ir.regions_per_op", "regions/op", regions},
		{"twiddle.fillrow_ns_per_elem", "ns/elem", float64(fill) / float64(rows)},
		// One read and one write of the whole matrix per transpose.
		{"ir.transpose_gbs", "GB/s", 2 * float64(n) * 16 / transpose.Seconds() / 1e9},
	}, nil
}

// programOf builds kind k's plan and returns the IR program it executes and
// its top-level split. A real kind reports the n/2-point complex plan a
// RealPlan wraps; the RealPlan itself does not export its program.
func programOf(k opKind, o *spiralfft.Options) (*ir.Program, [2]int, error) {
	switch k.family {
	case famWHT:
		p, err := spiralfft.NewWHTPlan(k.n, o)
		if err != nil {
			return nil, [2]int{}, err
		}
		defer p.Close()
		return p.Program(), [2]int{}, nil
	case famReal:
		k.n /= 2
	}
	p, err := spiralfft.NewPlan(k.n, o)
	if err != nil {
		return nil, [2]int{}, err
	}
	defer p.Close()
	m, q := p.Split()
	return p.Program(), [2]int{m, q}, nil
}

// addLeaves adds the leaf codelet calls of one call of tree t, times
// weight: an inner node m·k runs its left subtree k times and its right
// subtree m times.
func addLeaves(calls map[int]float64, t *exec.Tree, weight float64) {
	if t.Leaf {
		calls[t.N] += weight
		return
	}
	addLeaves(calls, t.Left, weight*float64(t.K()))
	addLeaves(calls, t.Right, weight*float64(t.M()))
}

// transposeTime times one ir.Transpose of a rows×cols complex matrix, run
// by the IR executor on one worker.
func transposeTime(rows, cols int) (time.Duration, error) {
	n := rows * cols
	prog := &ir.Program{
		Name: "transpose", N: n, P: 1, Mu: 4,
		Nodes: []ir.Node{&ir.Region{Name: "t", Workers: [][]ir.Op{{
			ir.Transpose{Dst: ir.BufDst, Src: ir.BufSrc, Rows: rows, Cols: cols, Lo: 0, Hi: cols},
		}}}},
	}
	exe, err := ir.NewExecutor(prog, nil)
	if err != nil {
		return 0, err
	}
	src, dst := make([]complex128, n), make([]complex128, n)
	src[1] = 1
	return fastest(func() { exe.Transform(dst, src) }), nil
}

// dispatchAndWire measures the two layers whose probes do not depend on the
// workload: a no-op region through a p=2 pool, and the wire codec on a
// 16 KiB payload (one n=1024 complex vector).
func dispatchAndWire() ([]metric, error) {
	pool := smp.NewPool(2)
	dispatch := bench.DispatchCost(pool, 200, 5)
	pool.Close()

	v := make([]complex128, 1024)
	var buf bytes.Buffer
	if err := wire.WriteComplexLE(&buf, v); err != nil {
		return nil, err
	}
	raw := bytes.Clone(buf.Bytes())
	rd := bytes.NewReader(raw)
	var err error
	read := fastest(func() {
		rd.Reset(raw)
		if e := wire.ReadComplexLE(rd, v); e != nil {
			err = e
		}
	})
	write := fastest(func() {
		buf.Reset()
		if e := wire.WriteComplexLE(&buf, v); e != nil {
			err = e
		}
	})
	if err != nil {
		return nil, err
	}
	gbs := func(d time.Duration) float64 { return float64(len(raw)) / d.Seconds() / 1e9 }
	return []metric{
		{"smp.dispatch_ns", "ns", float64(dispatch)},
		{"wire.read_gbs", "GB/s", gbs(read)},
		{"wire.write_gbs", "GB/s", gbs(write)},
	}, nil
}

// fastest returns the per-call time of fn in the fastest of five trials,
// each repeating fn for at least a millisecond after one warm-up call. The
// minimum suits probes of a single layer: noise only ever slows a trial.
func fastest(fn func()) time.Duration {
	const trials, minTrial = 5, time.Millisecond
	fn()
	reps := 1
	start := time.Now()
	fn()
	if d := time.Since(start); d < minTrial {
		reps = int(minTrial/max(d, 1)) + 1
	}
	best := time.Duration(math.MaxInt64)
	for t := 0; t < trials; t++ {
		start := time.Now()
		for i := 0; i < reps; i++ {
			fn()
		}
		best = min(best, time.Since(start)/time.Duration(reps))
	}
	return best
}

func nonspinRatio(a, b spiralfft.AggregatePoolStats) float64 {
	spin := b.SpinWakeups - a.SpinWakeups
	other := b.YieldWakeups - a.YieldWakeups + b.ParkWakeups - a.ParkWakeups
	if spin+other == 0 {
		return 0
	}
	return float64(other) / float64(spin+other)
}

func memStats() runtime.MemStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms
}

// spanQuantile is the weighted per-kind q-quantile (see phase.latency) of
// the spans' durations, µs.
func spanQuantile(spans []span, q float64) float64 {
	byKind := map[string][]float64{}
	for _, s := range spans {
		byKind[s.kind] = append(byKind[s.kind], float64(s.dur())/1e3)
	}
	var groups [][]float64
	for _, g := range byKind {
		groups = append(groups, g)
	}
	return weightedQuantile(groups, q)
}

// durQuantile is the q-quantile of ds, µs.
func durQuantile(ds []time.Duration, q float64) float64 {
	v := make([]float64, len(ds))
	for i, d := range ds {
		v[i] = float64(d) / 1e3
	}
	slices.Sort(v)
	return quantile(v, q)
}
