package main

import (
	"fmt"
	"math"
	"math/rand/v2"
	"strings"

	"spiralfft/internal/exec"
)

const (
	famDFT  = "dft"
	famReal = "real"
	famWHT  = "wht"
)

// An opKind is one transform a workload runs: family, direction and size.
type opKind struct {
	family  string
	inverse bool
	n       int
}

func (k opKind) String() string {
	if k.inverse {
		return k.family + ".inv"
	}
	return k.family + ".fwd"
}

// flops is the kind's nominal flop count under the library's per-family
// conventions (the ones its plans' Snapshot records use).
func (k opKind) flops() float64 {
	switch k.family {
	case famReal:
		return exec.FlopCount(k.n) / 2
	case famWHT:
		return float64(k.n) * math.Log2(float64(k.n))
	}
	return exec.FlopCount(k.n)
}

// A workload is one set of inputs the benchmark runs, closed loop from a
// single caller.
type workload struct {
	name  string
	kinds []opKind
	// mix gives each kind's probability per op; nil interleaves the kinds
	// in equal counts.
	mix []float64
	// inputs is the number of distinct seeded inputs per kind.
	inputs int
	// serve sends the ops through the HTTP daemon instead of the library.
	serve bool
	// tail is the quantile reported as latency_tail_us: the highest one with
	// at least ten samples beyond it in a run.
	tail float64
	// ref is the reference work its times are scaled by (see ref.go).
	ref *hostRef
}

// The four workloads; README.md gives the reason for each.
var workloads = []*workload{
	{name: "incache-p2", kinds: []opKind{{famDFT, false, 1024}}, inputs: 8, tail: 0.99, ref: &cpuRef},
	{name: "large-p2", kinds: []opKind{{famDFT, false, 1 << 22}}, inputs: 1, tail: 0.90, ref: &cpuRef},
	{name: "families-p2", kinds: []opKind{
		{famDFT, true, 4096}, {famReal, false, 4096}, {famReal, true, 4096}, {famWHT, false, 4096},
	}, inputs: 8, tail: 0.99, ref: &cpuRef},
	{name: "serve-http", kinds: []opKind{{famDFT, false, 1024}, {famReal, false, 4096}},
		mix: []float64{0.9, 0.1}, inputs: 8, serve: true, tail: 0.99, ref: &loopbackRef},
}

func lookupWorkload(name string) (*workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return nil, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// share is kind k's expected fraction of the ops.
func (w *workload) share(k int) float64 {
	if w.mix != nil {
		return w.mix[k]
	}
	return 1 / float64(len(w.kinds))
}

// makeInputs draws w.inputs inputs per kind from the seed. The stream is
// separate from the schedule's, so the two never shift each other.
func makeInputs(w *workload, seed uint64) [][]input {
	rng := rand.New(rand.NewPCG(seed, 2))
	ins := make([][]input, len(w.kinds))
	for k, kind := range w.kinds {
		for i := 0; i < w.inputs; i++ {
			ins[k] = append(ins[k], makeInput(kind, rng))
		}
	}
	return ins
}

// checkEvery is the checking stride: one op in every block of checkEvery,
// at a seeded position, has its output compared to the exact reference.
const checkEvery = 16

// A step is one scheduled op: which kind, on which of its inputs, and
// whether its output is checked.
type step struct {
	kind, input int
	check       bool
}

// A scheduler yields a workload's op sequence, reproducibly from a seed.
type scheduler struct {
	w       *workload
	rng     *rand.Rand
	block   []int // equal-count interleaving: a shuffled round of the kinds
	next    int   // position in block
	ops     int
	checkAt int
}

func newScheduler(w *workload, seed uint64) *scheduler {
	s := &scheduler{w: w, rng: rand.New(rand.NewPCG(seed, 1)), block: make([]int, len(w.kinds))}
	s.next = len(s.block)
	return s
}

func (s *scheduler) step() step {
	if s.ops%checkEvery == 0 {
		s.checkAt = s.ops + s.rng.IntN(checkEvery)
	}
	st := step{input: s.rng.IntN(s.w.inputs), check: s.ops == s.checkAt}
	if s.w.mix != nil {
		u := s.rng.Float64()
		for st.kind < len(s.w.mix)-1 && u >= s.w.mix[st.kind] {
			u -= s.w.mix[st.kind]
			st.kind++
		}
	} else {
		if s.next == len(s.block) {
			for i := range s.block {
				s.block[i] = i
			}
			s.rng.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
			s.next = 0
		}
		st.kind = s.block[s.next]
		s.next++
	}
	s.ops++
	return st
}
