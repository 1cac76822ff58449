package exec_test

import (
	"testing"

	"spiralfft/internal/cachesim"
	"spiralfft/internal/codelet"
	"spiralfft/internal/complexvec"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/smp"
	"spiralfft/internal/spl"
)

// The parallel schedules built from this package's kernels: formula (14),
// lowered by ir.LowerCT, runs Seq sub-plans, and the two-stage WHT, lowered
// by ir.LowerWHT, runs the WHTRowsScaled butterflies, both on ir.Executor. These
// tests pin the schedules against the sequential execution of the same
// factorization, which must agree to the last bit.

const tol = 1e-9

func naiveDFT(x []complex128) []complex128 {
	y := make([]complex128, len(x))
	codelet.Naive(len(x)).Apply(y, 0, 1, x, 0, 1, nil)
	return y
}

// parallelCT compiles the formula (14) program of split m on backend b.
func parallelCT(t *testing.T, n, m int, cfg ir.CTConfig, b smp.Backend) (*ir.Program, *ir.Executor) {
	t.Helper()
	prog, err := ir.LowerCT(n, m, cfg)
	if err != nil {
		t.Fatalf("LowerCT(%d, %d, %+v): %v", n, m, cfg, err)
	}
	e, err := ir.NewExecutor(prog, b)
	if err != nil {
		t.Fatalf("NewExecutor: %v", err)
	}
	return prog, e
}

func TestParallelMatchesSequentialBitForBit(t *testing.T) {
	// Same trees, same kernels, same per-element operation order: the
	// parallel schedule must be deterministic and bit-identical to the
	// sequential execution of the same factorization.
	n, m := 256, 16
	for _, p := range []int{2, 4} {
		pool := smp.NewPool(p)
		_, pe := parallelCT(t, n, m, ir.CTConfig{P: p, Mu: 4}, pool)
		seq := exec.MustNewSeq(exec.SplitTree(exec.RadixTree(m), exec.RadixTree(n/m)))
		x := complexvec.Random(n, 77)
		got := make([]complex128, n)
		want := make([]complex128, n)
		pe.Transform(got, x)
		seq.Transform(want, x, nil)
		if complexvec.MaxError(got, want) != 0 {
			t.Errorf("p=%d: parallel result differs from sequential (max err %g)",
				p, complexvec.MaxError(got, want))
		}
		again := make([]complex128, n)
		pe.Transform(again, x)
		if complexvec.MaxError(got, again) != 0 {
			t.Errorf("p=%d: parallel schedule not deterministic", p)
		}
		pool.Close()
	}
}

// TestParallelAccuracyMatchesSequential: parallelization must not change
// the rounding behaviour (same operations, same order per element).
func TestParallelAccuracyMatchesSequential(t *testing.T) {
	n := 4096
	pool := smp.NewPool(2)
	defer pool.Close()
	m, _ := exec.SplitFor(n, 2, 4)
	_, pe := parallelCT(t, n, m, ir.CTConfig{P: 2, Mu: 4}, pool)
	seq := exec.MustNewSeq(exec.SplitTree(exec.RadixTree(m), exec.RadixTree(n/m)))
	x := complexvec.Random(n, 99)
	a := make([]complex128, n)
	b := make([]complex128, n)
	pe.Transform(a, x)
	seq.Transform(b, x, nil)
	if complexvec.MaxError(a, b) != 0 {
		t.Error("parallel schedule rounds differently from sequential")
	}
}

func TestParallelCorrectAcrossConfigs(t *testing.T) {
	for _, n := range []int{64, 256, 1024, 4096} {
		want := naiveDFT(complexvec.Random(n, uint64(n)))
		for _, p := range []int{1, 2, 4} {
			for _, mu := range []int{1, 2, 4} {
				m, ok := exec.SplitFor(n, p, mu)
				if !ok {
					continue
				}
				for _, sched := range []ir.Schedule{ir.ScheduleBlock, ir.ScheduleCyclic} {
					for _, b := range []smp.Backend{smp.NewPool(p), smp.NewSpawn(p)} {
						_, pe := parallelCT(t, n, m, ir.CTConfig{P: p, Mu: mu, Schedule: sched}, b)
						got := make([]complex128, n)
						pe.Transform(got, complexvec.Random(n, uint64(n)))
						if e := complexvec.RelError(got, want); e > tol {
							t.Errorf("n=%d p=%d mu=%d %s %T: rel error %g", n, p, mu, sched, b, e)
						}
						b.Close()
					}
				}
			}
		}
	}
}

func TestParallelInPlace(t *testing.T) {
	n := 256
	pool := smp.NewPool(2)
	defer pool.Close()
	_, pe := parallelCT(t, n, 16, ir.CTConfig{P: 2, Mu: 4}, pool)
	x := complexvec.Random(n, 13)
	buf := complexvec.Clone(x)
	pe.Transform(buf, buf)
	if e := complexvec.RelError(buf, naiveDFT(x)); e > tol {
		t.Errorf("parallel in-place: rel error %g", e)
	}
}

func TestTraceAccessesPartitionAllBuffers(t *testing.T) {
	n, m, p := 256, 16, 2
	prog, err := ir.LowerCT(n, m, ir.CTConfig{P: p, Mu: 4})
	if err != nil {
		t.Fatal(err)
	}
	if prog.TraceStages() != 2 {
		t.Fatalf("stages = %d", prog.TraceStages())
	}
	// Stage 1 must read every src element exactly once and write every
	// stage-buffer element exactly once across all workers; stage 2 likewise
	// for the stage buffer → dst.
	tmp := ir.TempBuf(0)
	for stage, bufs := range [][2]ir.Buf{{ir.BufSrc, tmp}, {tmp, ir.BufDst}} {
		reads := make([]int, n)
		writes := make([]int, n)
		for w := 0; w < p; w++ {
			prog.TraceAccesses(stage, w, func(buf ir.Buf, idx int, write bool) {
				switch {
				case write && buf == bufs[1]:
					writes[idx]++
				case !write && buf == bufs[0]:
					reads[idx]++
				default:
					t.Fatalf("stage %d: unexpected access buf=%v write=%v", stage, buf, write)
				}
			})
		}
		for i := 0; i < n; i++ {
			if reads[i] != 1 || writes[i] != 1 {
				t.Fatalf("stage %d idx %d: reads=%d writes=%d", stage, i, reads[i], writes[i])
			}
		}
	}
}

func TestTraceWorkBalanced(t *testing.T) {
	prog, err := ir.LowerCT(1024, 32, ir.CTConfig{P: 4, Mu: 4})
	if err != nil {
		t.Fatal(err)
	}
	for stage := 0; stage < 2; stage++ {
		w0 := prog.TraceWork(stage, 0)
		for w := 1; w < 4; w++ {
			if prog.TraceWork(stage, w) != w0 {
				t.Errorf("stage %d: unbalanced trace work", stage)
			}
		}
		if w0 <= 0 {
			t.Errorf("stage %d: zero work", stage)
		}
	}
}

func TestTracePanicsOnBadStage(t *testing.T) {
	prog, err := ir.LowerCT(256, 16, ir.CTConfig{P: 2, Mu: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	prog.TraceAccesses(2, 0, func(ir.Buf, int, bool) {})
}

func TestTraceWorkPanicsOnBadStage(t *testing.T) {
	prog, err := ir.LowerCT(256, 16, ir.CTConfig{P: 2, Mu: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	prog.TraceWork(5, 0)
}

func refWHT(x []complex128) []complex128 {
	k := 0
	for v := len(x); v > 1; v >>= 1 {
		k++
	}
	y := make([]complex128, len(x))
	spl.NewWHT(k).Apply(y, x)
	return y
}

func TestWHTParallelMatchesSequential(t *testing.T) {
	for _, c := range []struct{ k, p, mu int }{
		{8, 2, 4}, {10, 2, 4}, {12, 4, 4}, {6, 2, 2}, {2, 2, 1}, {4, 4, 1},
	} {
		n := 1 << uint(c.k)
		prog, err := ir.LowerWHT(n, c.p, c.mu)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		if prog.P != c.p {
			t.Fatalf("%+v: expected a %d-worker program, got P=%d", c, c.p, prog.P)
		}
		pool := smp.NewPool(c.p)
		e, err := ir.NewExecutor(prog, pool)
		if err != nil {
			t.Fatalf("%+v: %v", c, err)
		}
		x := complexvec.Random(n, uint64(n))
		want := complexvec.Clone(x)
		exec.WHTInPlace(want)
		got := make([]complex128, n)
		e.Transform(got, x)
		if complexvec.MaxError(got, want) != 0 {
			t.Errorf("%+v: parallel WHT differs from WHTInPlace", c)
		}
		if d := complexvec.RelError(got, refWHT(x)); d > 1e-12 {
			t.Errorf("%+v: rel error %g against the definition", c, d)
		}
		// In-place.
		buf := complexvec.Clone(x)
		e.Transform(buf, buf)
		if complexvec.MaxError(buf, want) != 0 {
			t.Errorf("%+v in-place: differs from WHTInPlace", c)
		}
		pool.Close()
	}
}

func TestWHTSmallSizeFallsBackSequential(t *testing.T) {
	// 2^4 has no split with both factors divisible by pµ = 8.
	prog, err := ir.LowerWHT(16, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if prog.P != 1 {
		t.Error("tiny WHT should fall back to sequential")
	}
	e, err := ir.NewExecutor(prog, nil)
	if err != nil {
		t.Fatal(err)
	}
	x := complexvec.Random(16, 3)
	got := make([]complex128, 16)
	e.Transform(got, x)
	if d := complexvec.RelError(got, refWHT(x)); d > 1e-12 {
		t.Errorf("fallback: rel error %g", d)
	}
}

// The parallel WHT's trace sees every point its row-form stage touches:
// stage 1 reads each src point and writes each dst point once, stage 2
// reads and writes each dst point once, the work per stage is balanced, and
// the program's trace flops equal the sequential program's 2·n·log2 n.
// The Definition-1 audit finds no false sharing and perfect balance.
func TestWHTTraceSeesRowForm(t *testing.T) {
	for _, c := range []struct{ n, p int }{{4096, 2}, {4096, 4}, {2048, 2}, {256, 4}} {
		prog, err := ir.LowerWHT(c.n, c.p, 4)
		if err != nil {
			t.Fatal(err)
		}
		seq, err := ir.LowerWHT(c.n, 1, 4)
		if err != nil {
			t.Fatal(err)
		}
		if prog.P != c.p || prog.TraceStages() != 2 || len(prog.Temps) != 0 {
			t.Fatalf("n=%d p=%d: program P=%d stages=%d temps=%v", c.n, c.p, prog.P, prog.TraceStages(), prog.Temps)
		}
		for stage, bufs := range [][2]ir.Buf{{ir.BufSrc, ir.BufDst}, {ir.BufDst, ir.BufDst}} {
			reads := make([]int, c.n)
			writes := make([]int, c.n)
			for w := 0; w < c.p; w++ {
				prog.TraceAccesses(stage, w, func(buf ir.Buf, idx int, write bool) {
					switch {
					case write && buf == bufs[1]:
						writes[idx]++
					case !write && buf == bufs[0]:
						reads[idx]++
					default:
						t.Fatalf("stage %d: unexpected access buf=%v write=%v", stage, buf, write)
					}
				})
				if prog.TraceWork(stage, w) != prog.TraceWork(stage, 0) {
					t.Errorf("n=%d p=%d stage %d: worker %d work differs", c.n, c.p, stage, w)
				}
			}
			for i := range reads {
				if reads[i] != 1 || writes[i] != 1 {
					t.Fatalf("n=%d p=%d stage %d idx %d: reads=%d writes=%d", c.n, c.p, stage, i, reads[i], writes[i])
				}
			}
		}
		total := func(p *ir.Program) float64 {
			f := 0.0
			for s := 0; s < p.TraceStages(); s++ {
				for w := 0; w < p.P; w++ {
					f += p.TraceWork(s, w)
				}
			}
			return f
		}
		k := 0
		for v := c.n; v > 1; v >>= 1 {
			k++
		}
		if got, want := total(prog), float64(2*c.n*k); got != want || total(seq) != want {
			t.Errorf("n=%d p=%d: trace flops %g (sequential %g), want %g", c.n, c.p, got, total(seq), want)
		}
		rep := cachesim.AnalyzeProgram(prog, 4)
		if !rep.FalseSharingFree() || rep.MaxImbalance() != 1.0 {
			t.Errorf("n=%d p=%d: %d false-shared lines, imbalance %.3f", c.n, c.p, rep.TotalFalseSharedLines(), rep.MaxImbalance())
		}
	}
}

func TestWHTErrors(t *testing.T) {
	if _, err := ir.LowerWHT(1, 1, 4); err == nil {
		t.Error("accepted n=1")
	}
	if _, err := ir.LowerWHT(24, 1, 4); err == nil {
		t.Error("accepted a size that is not a power of two")
	}
	prog, err := ir.LowerWHT(1024, 2, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ir.NewExecutor(prog, nil); err == nil {
		t.Error("accepted missing backend")
	}
	pool := smp.NewPool(4)
	defer pool.Close()
	if _, err := ir.NewExecutor(prog, pool); err == nil {
		t.Error("accepted worker mismatch")
	}
}
