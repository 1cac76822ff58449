// Package machine models the four shared-memory platforms of the paper's
// evaluation (Section 4) and predicts pseudo-Mflop/s series for them.
//
// The hardware itself is unavailable, so Figure 3 is reproduced two ways:
// real measurements on the host (cmd/benchfig3 -measure) and, through this
// package, an analytic model per paper platform. The model combines
//
//   - a compute term: 5·N·log2(N) flops at the platform's sustained scalar
//     flop rate,
//   - a memory term: a slowdown once the working set leaves L1/L2, bounded
//     by the platform's bandwidth,
//   - a synchronization term: barrier cost for pooled threads versus
//     thread-creation cost for spawned threads (the paper's pthreads-pool
//     vs. OpenMP/FFTW distinction),
//   - a false-sharing term: cache-line conflicts counted by the trace-driven
//     simulator for the schedule in question, each costing a line transfer.
//
// The absolute numbers are calibrated only loosely; what the model is for is
// the *shape* of Figure 3 — who parallelizes at which size, who wins where —
// which follows from the overhead structure, not from the constants.
package machine

import (
	"fmt"

	"spiralfft/internal/cachesim"
	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
)

// Platform describes a shared-memory machine.
type Platform struct {
	Name string // display name, e.g. "2.0 GHz Intel Core Duo"
	Key  string // short key, e.g. "coreduo"
	P    int    // processors (cores)
	Mu   int    // cache-line length in complex128 elements
	// FreqGHz is the clock frequency.
	FreqGHz float64
	// FlopsPerCycle is the sustained scalar flop rate per core on FFT code.
	FlopsPerCycle float64
	// L1KB and L2KB are the data cache sizes per core (L2 possibly shared).
	L1KB, L2KB int
	// SharedL2 marks a die-shared L2 (Core Duo).
	SharedL2 bool
	// BarrierCycles is the cost of one spin-barrier phase across all cores
	// (pooled threads). On-chip communication makes this small; bus-based
	// synchronization makes it large.
	BarrierCycles float64
	// SpawnCycles is the cost of creating and joining one batch of threads
	// (non-pooled parallel region).
	SpawnCycles float64
	// LineTransferCycles is the cost of one cache line ping-pong (false
	// sharing event).
	LineTransferCycles float64
	// MemGBs is the sustained memory bandwidth in GB/s (all cores).
	MemGBs float64
}

// The paper's four evaluation platforms. Cache-line length is 64 bytes
// everywhere, so µ = 4 complex128 elements.
var (
	// CoreDuo is the 2.0 GHz Intel Core Duo laptop: two cores with a shared
	// L2 cache and fast on-chip synchronization.
	CoreDuo = Platform{
		Name: "2.0 GHz Intel Core Duo", Key: "coreduo",
		P: 2, Mu: 4, FreqGHz: 2.0, FlopsPerCycle: 1.15,
		L1KB: 32, L2KB: 2048, SharedL2: true,
		BarrierCycles: 1400, SpawnCycles: 200000, LineTransferCycles: 80,
		MemGBs: 4.0,
	}
	// PentiumD is the 3.6 GHz Intel Pentium D desktop: two CPUs on one chip
	// but synchronizing through the front-side bus.
	PentiumD = Platform{
		Name: "3.6 GHz Intel Pentium D", Key: "pentiumd",
		P: 2, Mu: 4, FreqGHz: 3.6, FlopsPerCycle: 0.85,
		L1KB: 16, L2KB: 1024, SharedL2: false,
		BarrierCycles: 9000, SpawnCycles: 350000, LineTransferCycles: 300,
		MemGBs: 5.5,
	}
	// Opteron is the 2.2 GHz AMD Opteron dual-core workstation: four cores
	// (two per chip) with a fast on-chip cache coherency protocol.
	Opteron = Platform{
		Name: "2.2 GHz AMD Opteron Dual Core", Key: "opteron",
		P: 4, Mu: 4, FreqGHz: 2.2, FlopsPerCycle: 1.05,
		L1KB: 64, L2KB: 1024, SharedL2: false,
		BarrierCycles: 3500, SpawnCycles: 250000, LineTransferCycles: 150,
		MemGBs: 6.5,
	}
	// XeonMP is the 2.8 GHz Intel Xeon MP rack server: four processors
	// communicating through the shared bus — a traditional SMP.
	XeonMP = Platform{
		Name: "2.8 GHz Intel Xeon MP", Key: "xeonmp",
		P: 4, Mu: 4, FreqGHz: 2.8, FlopsPerCycle: 0.95,
		L1KB: 8, L2KB: 512, SharedL2: false,
		BarrierCycles: 15000, SpawnCycles: 400000, LineTransferCycles: 400,
		MemGBs: 4.5,
	}
)

// Platforms returns the paper's four platforms in Figure-3 order
// (a: Core Duo, b: Opteron, c: Pentium D, d: Xeon MP).
func Platforms() []Platform {
	return []Platform{CoreDuo, Opteron, PentiumD, XeonMP}
}

// ByKey looks a platform up by its short key.
func ByKey(key string) (Platform, bool) {
	for _, p := range Platforms() {
		if p.Key == key {
			return p, true
		}
	}
	return Platform{}, false
}

// Series identifies one line of a Figure-3 subplot.
type Series int

const (
	// SpiralPool is Spiral-generated code on pooled threads with spin
	// barriers ("Spiral pthreads" in Figure 3).
	SpiralPool Series = iota
	// SpiralSpawn is Spiral-generated code with per-transform thread
	// creation ("Spiral OpenMP").
	SpiralSpawn
	// SpiralSeq is the tuned sequential Spiral code.
	SpiralSeq
	// FFTWPar is the FFTW-style library with loop parallelization, cyclic
	// scheduling, no pooling, and best-of-threads selection
	// ("FFTW pthreads").
	FFTWPar
	// FFTWSeq is the sequential FFTW-style library.
	FFTWSeq
)

// String names the series as in Figure 3.
func (s Series) String() string {
	switch s {
	case SpiralPool:
		return "Spiral pthreads"
	case SpiralSpawn:
		return "Spiral OpenMP"
	case SpiralSeq:
		return "Spiral sequential"
	case FFTWPar:
		return "FFTW pthreads"
	default:
		return "FFTW sequential"
	}
}

// AllSeries returns the five Figure-3 series in legend order.
func AllSeries() []Series {
	return []Series{SpiralPool, SpiralSpawn, SpiralSeq, FFTWPar, FFTWSeq}
}

// Predict returns the modeled performance in pseudo-Mflop/s for the series
// on this platform at size n = 2^logN.
func (pl Platform) Predict(series Series, logN int) float64 {
	n := 1 << uint(logN)
	switch series {
	case SpiralSeq:
		return pl.Pseudo(n, pl.seqCycles(n, 1.0))
	case FFTWSeq:
		// The FFTW-style baseline runs within a few percent of the tuned
		// sequential code (both are scalar codelet libraries); the paper
		// reports Spiral within 10% of FFTW. Model a small fixed gap from
		// the missing per-size tuning.
		return pl.Pseudo(n, pl.seqCycles(n, 1.0)*1.05)
	case SpiralPool:
		return pl.Pseudo(n, pl.bestParallel(n, pl.seqCycles(n, 1.0), pl.BarrierCycles))
	case SpiralSpawn:
		return pl.Pseudo(n, pl.bestParallel(n, pl.seqCycles(n, 1.0), pl.SpawnCycles/4))
	case FFTWPar:
		// Like FFTW's bench: the best of 1..P threads over FFTW's own
		// sequential baseline. FFTW parallelizes its loops in contiguous
		// µ-oblivious chunks with freshly created threads; its handicap is
		// the per-transform overhead, which the spawn cost models.
		return pl.Pseudo(n, pl.bestParallel(n, pl.seqCycles(n, 1.0)*1.05, pl.SpawnCycles))
	}
	panic(fmt.Sprintf("machine: unknown series %d", series))
}

// seqCycles models the sequential runtime in cycles, including the memory
// hierarchy slowdown. scale multiplies the compute term (for library overhead).
func (pl Platform) seqCycles(n int, scale float64) float64 {
	flops := exec.FlopCount(n)
	compute := flops / pl.FlopsPerCycle * scale
	return compute * pl.memFactor(n, 1)
}

// memFactor models the slowdown once the working set (input, output, stage
// buffer, twiddles ≈ 64 bytes/element) leaves the caches available to the
// p cooperating cores.
func (pl Platform) memFactor(n, p int) float64 {
	bytes := float64(64 * n)
	l1 := float64(pl.L1KB*1024) * float64(p)
	l2 := float64(pl.L2KB * 1024)
	if !pl.SharedL2 {
		l2 *= float64(p)
	}
	switch {
	case bytes <= l1:
		return 1.0
	case bytes <= l2:
		return 1.35
	default:
		// Memory-bound: passes over the data at the platform bandwidth.
		cyclesBW := bytes * 3 / (pl.MemGBs * 1e9) * (pl.FreqGHz * 1e9)
		flopCycles := exec.FlopCount(n) / pl.FlopsPerCycle
		f := 2.2
		if cyclesBW > flopCycles*f {
			f = cyclesBW / flopCycles
		}
		return f
	}
}

// bestParallel models the parallel runtime in cycles for the given per-
// region synchronization cost, trying thread counts 1..P like
// FFTW's bench (and like the paper's measurement protocol, which plots the
// best of 1, 2, 4 threads). seqBase is the library's own 1-thread runtime.
// Returns the best cycle count.
func (pl Platform) bestParallel(n int, seqBase, syncCycles float64) float64 {
	best := seqBase
	for p := 2; p <= pl.P; p *= 2 {
		c, ok := pl.parallelCycles(n, p, syncCycles)
		if ok && c < best {
			best = c
		}
	}
	return best
}

// parallelCycles models one parallel configuration: the split's formula
// (14) program, lowered by ir.LowerCT with block scheduling, is the schedule
// whose false sharing the line simulator counts.
func (pl Platform) parallelCycles(n, p int, syncCycles float64) (float64, bool) {
	mu := pl.Mu
	if syncCycles >= pl.SpawnCycles {
		mu = 1 // µ-oblivious planning (FFTW-style)
	}
	m, ok := exec.SplitFor(n, p, mu)
	if !ok {
		return 0, false
	}
	prog, err := ir.LowerCT(n, m, ir.CTConfig{P: p, Mu: mu})
	if err != nil {
		return 0, false
	}
	// Compute term: perfectly load balanced (the simulator verifies this),
	// so work divides by p; the two barrier-separated stages each pay the
	// synchronization cost once.
	compute := exec.FlopCount(n) / pl.FlopsPerCycle / float64(p) * pl.memFactor(n, p)
	sync := 2 * syncCycles
	// True communication: in stage 2 every processor reads columns another
	// processor produced in stage 1, so (p-1)/p of the stage buffer's lines
	// move between caches once. A one-shot transfer costs roughly an eighth
	// of a false-sharing ping-pong.
	comm := float64(n) / float64(pl.Mu) * float64(p-1) / float64(p) * pl.LineTransferCycles / 8
	// False-sharing term from the trace-driven line simulator, evaluated at
	// the true line length. Unlike true communication these lines bounce
	// repeatedly while both writers work through them.
	rep := cachesim.AnalyzeProgram(prog, pl.Mu)
	sharing := float64(rep.TotalFalseSharedLines()) * pl.LineTransferCycles
	return compute + sync + comm + sharing, true
}

// Pseudo converts cycles to pseudo-Mflop/s on this platform.
func (pl Platform) Pseudo(n int, cycles float64) float64 {
	if cycles <= 0 {
		return 0
	}
	tMicros := cycles / (pl.FreqGHz * 1e3)
	return exec.FlopCount(n) / tMicros
}
