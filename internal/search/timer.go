// Package search implements Spiral's search/learning block: automatic tuning
// over the Cooley-Tukey factorization space with runtime feedback.
//
// The strategies mirror the search methods the Spiral paper describes:
//
//   - dynamic programming (the default): the best tree for size n is built
//     from the measured best trees of its factors, memoized per size;
//   - estimate: the same candidates, picked by the analytic model alone;
//   - exhaustive search over all binary factorization trees (small sizes);
//   - random search: sample random trees, keep the fastest;
//   - evolutionary search: breed random trees under measured fitness.
//
// Every decision — a tree, a base-case cutoff, a parallel split, a
// four-step split — goes through one loop, pick: the model ranks the
// candidates, the cheapest few are timed, the fastest wins.
//
// The parallel tuner composes the sequential results: it enumerates the
// top-level splits admissible for the multicore Cooley-Tukey FFT (pµ | m,
// pµ | k), measures each against the sequential plan, and keeps whatever is
// fastest — which automatically yields the paper's behaviour that parallel
// plans take over exactly at the size where the synchronization overhead is
// amortized.
//
// All searching and measuring is deadline-aware: the context-taking
// variants (BestTreeCtx, TuneParallelCtx, MeasureCtx) and the Tuner.Budget
// field bound total planning time, returning the best result found so far
// instead of running unbounded — the property that makes measured planning
// usable inside a latency-budgeted service.
package search

import (
	"context"
	"sort"
	"time"
)

// now is the measurement clock, a variable so tests can substitute a coarse
// or frozen clock to exercise the calibration bounds.
var now = time.Now

// TimerConfig controls runtime measurement.
type TimerConfig struct {
	// MinTime is the minimum total measuring time per candidate; repetitions
	// are scaled until it is exceeded (default 200µs).
	MinTime time.Duration
	// Repeats is the number of measurement rounds; the median of the rounds
	// is the reported time (default 3).
	Repeats int
	// MaxReps caps the calibrated repetition count per round (default 1<<20).
	// The cap keeps a coarse or non-advancing clock from growing the count
	// without bound (formerly an int overflow that produced zero-iteration
	// rounds reporting 0ns — a time that then won every tuning comparison).
	MaxReps int
}

func (c TimerConfig) withDefaults() TimerConfig {
	if c.MinTime <= 0 {
		c.MinTime = 200 * time.Microsecond
	}
	if c.Repeats <= 0 {
		c.Repeats = 3
	}
	if c.MaxReps <= 0 {
		c.MaxReps = 1 << 20
	}
	return c
}

// maxCalibrationAttempts bounds the calibration loop: with the growth
// factor capped at 16 per attempt, 8 attempts reach any admissible MaxReps
// from 1, so hitting the bound means the clock is not advancing.
const maxCalibrationAttempts = 8

// unmeasured is returned when cancellation preempts every measurement
// round: effectively infinite, so a half-measured candidate never wins a
// tuning comparison.
const unmeasured = time.Duration(1<<62 - 1)

// Measure times fn: it calibrates a repetition count so one round takes at
// least MinTime, runs Repeats rounds, and returns the median per-call time.
func Measure(fn func(), cfg TimerConfig) time.Duration {
	return MeasureCtx(context.Background(), fn, cfg)
}

// MeasureCtx is Measure with cooperative cancellation: the context is
// polled between calibration attempts and measurement rounds (one fn call
// is the interruption granularity). On cancellation it returns the median
// of the rounds completed so far, or a practically-infinite duration when
// none completed — never a non-positive time, so a preempted measurement
// cannot masquerade as the fastest candidate.
func MeasureCtx(ctx context.Context, fn func(), cfg TimerConfig) time.Duration {
	cfg = cfg.withDefaults()
	if ctx == nil {
		ctx = context.Background()
	}
	if ctx.Err() != nil {
		return unmeasured
	}
	// Calibrate repetitions: bounded attempts, bounded growth, capped reps.
	reps := 1
	for attempt := 0; attempt < maxCalibrationAttempts; attempt++ {
		start := now()
		for i := 0; i < reps; i++ {
			fn()
		}
		elapsed := now().Sub(start)
		if elapsed >= cfg.MinTime || reps >= cfg.MaxReps || ctx.Err() != nil {
			break
		}
		factor := 16
		if elapsed > 0 {
			factor = int(cfg.MinTime/elapsed) + 1
			if factor > 16 {
				factor = 16
			}
		}
		reps *= factor
		if reps > cfg.MaxReps {
			reps = cfg.MaxReps
		}
	}
	var rounds []time.Duration
	for r := 0; r < cfg.Repeats; r++ {
		if ctx.Err() != nil {
			break
		}
		start := now()
		for i := 0; i < reps; i++ {
			fn()
		}
		rounds = append(rounds, now().Sub(start)/time.Duration(reps))
	}
	if len(rounds) == 0 {
		return unmeasured
	}
	sort.Slice(rounds, func(i, j int) bool { return rounds[i] < rounds[j] })
	med := rounds[len(rounds)/2]
	if med <= 0 {
		// Coarse clock: the rounds finished inside one tick. Report the
		// smallest positive duration rather than 0, which would win every
		// comparison against genuinely measured candidates.
		med = time.Nanosecond
	}
	return med
}
