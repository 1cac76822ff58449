//go:build !race

package bench

// raceEnabled reports whether the race detector instruments this build.
// Under -race every atomic of the pool's spin barrier is instrumented, so
// pooled dispatch costs about as much as spawning and the dispatch-cost
// comparison measures the detector, not the pool.
const raceEnabled = false
