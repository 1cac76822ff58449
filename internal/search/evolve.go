package search

import (
	"math/rand"
	"time"

	"spiralfft/internal/exec"
)

// Evolutionary search over factorization trees, in the spirit of STEER
// (Singer & Veloso, ref. [24] of the paper): a population of trees evolves
// by subtree crossover and re-split mutation under measured-runtime fitness
// with tournament selection and elitism.

const (
	evolvePopulation   = 16
	evolveGenerations  = 8
	evolveTournament   = 3
	evolveMutationRate = 0.3
)

// evolve runs the evolutionary search for DFT_n. Every fitness is one
// measurement through the tuner, so the search stops with the champion so
// far once the deadline expires; Candidates counts the distinct trees timed.
func (t *Tuner) evolve(n int) Result {
	var best Result
	fitness := make(map[string]time.Duration)
	fit := func(tr *exec.Tree) time.Duration {
		key := tr.String()
		if d, ok := fitness[key]; ok {
			return d
		}
		d := unmeasured
		if _, md, ok := pick(t, []*exec.Tree{tr}, treeScan(n)); ok {
			d = md
			best.Candidates++
		}
		fitness[key] = d
		return d
	}
	pop := make([]*exec.Tree, evolvePopulation)
	for i := range pop {
		pop[i] = t.randomTree(n)
	}
	for gen := 0; ; gen++ {
		for _, tr := range pop {
			if d := fit(tr); d < unmeasured && (best.Tree == nil || d < best.Time) {
				best.Tree, best.Time = tr, d
			}
		}
		if gen == evolveGenerations || best.Tree == nil || t.expired() {
			break
		}
		// The next generation: the champion plus offspring.
		next := []*exec.Tree{best.Tree}
		for len(next) < evolvePopulation {
			a := tournament(pop, t.rng, fit)
			b := tournament(pop, t.rng, fit)
			child := crossoverTrees(a, b, t.rng)
			if t.rng.Float64() < evolveMutationRate {
				child = t.mutateTree(child)
			}
			next = append(next, child)
		}
		pop = next
	}
	return best
}

func tournament(pop []*exec.Tree, rng *rand.Rand, fit func(*exec.Tree) time.Duration) *exec.Tree {
	best := pop[rng.Intn(len(pop))]
	for i := 1; i < evolveTournament; i++ {
		c := pop[rng.Intn(len(pop))]
		if fit(c) < fit(best) {
			best = c
		}
	}
	return best
}

// subtrees collects every node of t (pre-order).
func subtrees(t *exec.Tree) []*exec.Tree {
	out := []*exec.Tree{t}
	if !t.Leaf {
		out = append(out, subtrees(t.Left)...)
		out = append(out, subtrees(t.Right)...)
	}
	return out
}

// replaceSubtree returns a copy of t with the node old replaced by repl
// (matched by pointer identity).
func replaceSubtree(t, old, repl *exec.Tree) *exec.Tree {
	if t == old {
		return repl
	}
	if t.Leaf {
		return t
	}
	return exec.SplitTree(replaceSubtree(t.Left, old, repl), replaceSubtree(t.Right, old, repl))
}

// crossoverTrees grafts a random subtree of b onto a at a position of equal
// size; if no size matches (other than the trivial root), it returns a.
func crossoverTrees(a, b *exec.Tree, rng *rand.Rand) *exec.Tree {
	subsA := subtrees(a)
	subsB := subtrees(b)
	// Index b's subtrees by size.
	bySize := make(map[int][]*exec.Tree)
	for _, s := range subsB {
		bySize[s.N] = append(bySize[s.N], s)
	}
	// Try random positions in a.
	for attempt := 0; attempt < 4; attempt++ {
		pos := subsA[rng.Intn(len(subsA))]
		cands := bySize[pos.N]
		if len(cands) == 0 {
			continue
		}
		graft := cands[rng.Intn(len(cands))]
		if graft.String() == pos.String() {
			continue // no-op graft
		}
		return replaceSubtree(a, pos, graft)
	}
	return a
}

// mutateTree re-splits a random subtree with a fresh random factorization.
func (t *Tuner) mutateTree(tr *exec.Tree) *exec.Tree {
	subs := subtrees(tr)
	pos := subs[t.rng.Intn(len(subs))]
	return replaceSubtree(tr, pos, t.randomTree(pos.N))
}
