// Package exec contains the sequential execution engines the IR schedules
// run:
//
//   - Seq: a recursive strided Cooley-Tukey executor over unrolled codelets,
//     equivalent to the loop code Spiral generates for a sequential
//     factorization tree (permutations and twiddle diagonals folded into
//     strides and kernels, never executed as separate passes);
//   - NewBluesteinKernel: the chirp-z kernel for large prime leaves;
//   - WHTInPlace and WHTRows: the Walsh-Hadamard transform as a ladder of
//     generated radix-8 (then radix-4 or radix-2) pass kernels,
//     codelet.WHTPass.
//
// The multicore Cooley-Tukey FFT of the paper (formula (14)) is not here: it
// is lowered by ir.LowerCT and runs on ir.Executor, whose worker ops call
// Seq sub-plans. Plans are immutable after construction and safe for
// concurrent use as long as each concurrent caller uses its own scratch.
package exec

import (
	"fmt"

	"spiralfft/internal/codelet"
)

// Tree is a Cooley-Tukey factorization tree for DFT_N. A leaf executes a
// codelet of size N; an inner node splits N = M · K into a left subtree
// (DFT_M, the strided stage that also applies the twiddles) and a right
// subtree (DFT_K).
type Tree struct {
	N     int
	Leaf  bool
	Left  *Tree // DFT_M
	Right *Tree // DFT_K
}

// M returns the left factor of an inner node.
func (t *Tree) M() int { return t.Left.N }

// K returns the right factor of an inner node.
func (t *Tree) K() int { return t.Right.N }

// Validate checks structural consistency: factor products match and leaves
// are within codelet reach (any size is allowed — the naive kernel covers
// primes — but sizes must be positive).
func (t *Tree) Validate() error {
	if t == nil {
		return fmt.Errorf("exec: nil tree")
	}
	if t.N < 1 {
		return fmt.Errorf("exec: tree size %d", t.N)
	}
	if t.Leaf {
		return nil
	}
	if t.Left == nil || t.Right == nil {
		return fmt.Errorf("exec: inner node of size %d missing children", t.N)
	}
	if t.Left.N*t.Right.N != t.N {
		return fmt.Errorf("exec: split %d ≠ %d · %d", t.N, t.Left.N, t.Right.N)
	}
	if err := t.Left.Validate(); err != nil {
		return err
	}
	return t.Right.Validate()
}

// String renders the tree as a nested split expression, e.g. "(8 x (4 x 2))".
func (t *Tree) String() string {
	if t.Leaf {
		return fmt.Sprintf("%d", t.N)
	}
	return fmt.Sprintf("(%s x %s)", t.Left.String(), t.Right.String())
}

// LeafTree returns a single-codelet tree for n.
func LeafTree(n int) *Tree { return &Tree{N: n, Leaf: true} }

// SplitTree returns the inner node m·k = n over the given subtrees.
func SplitTree(left, right *Tree) *Tree {
	return &Tree{N: left.N * right.N, Left: left, Right: right}
}

// RadixTree builds the default factorization: repeatedly split off the
// largest registered codelet size that divides n as the left (strided)
// factor, recursing on the right. Sizes with no codelet divisor > 1 (primes
// beyond the codelet set) become naive leaves.
func RadixTree(n int) *Tree { return RadixTreeCap(n, 0) }

// RadixTreeCap is RadixTree with the greedy choice bounded: no leaf or left
// factor larger than maxLeaf is used (maxLeaf ≤ 0 means unbounded). This is
// the base-case-cutoff dimension the tuner searches: the registry advertises
// codelets up to MaxUnrolled, but the fastest place to bottom out the
// recursion is machine-dependent.
func RadixTreeCap(n, maxLeaf int) *Tree {
	if n < 1 {
		panic(fmt.Sprintf("exec: RadixTreeCap(%d, %d)", n, maxLeaf))
	}
	if maxLeaf <= 0 {
		maxLeaf = codelet.MaxUnrolled()
	}
	if n <= maxLeaf && codelet.HasUnrolled(n) {
		return LeafTree(n)
	}
	sizes := codelet.Sizes()
	for i := len(sizes) - 1; i >= 0; i-- {
		r := sizes[i]
		if r <= maxLeaf && r > 1 && r < n && n%r == 0 {
			return SplitTree(LeafTree(r), RadixTreeCap(n/r, maxLeaf))
		}
	}
	// No codelet divides n: peel the smallest prime factor, or give up on a
	// naive leaf when n itself is prime.
	if f := smallestPrimeFactor(n); f < n {
		return SplitTree(LeafTree(f), RadixTreeCap(n/f, maxLeaf))
	}
	return LeafTree(n)
}

// BalancedTree builds a tree that splits n as close to √n as its divisors
// allow, recursing on both sides. For powers of two this yields the
// divide-and-conquer shape that keeps working sets cache-resident.
func BalancedTree(n int) *Tree {
	if n < 1 {
		panic(fmt.Sprintf("exec: BalancedTree(%d)", n))
	}
	if codelet.HasUnrolled(n) {
		return LeafTree(n)
	}
	best := 1
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			best = d
		}
	}
	if best == 1 {
		return LeafTree(n) // prime
	}
	m := n / best // the larger factor goes left (strided, twiddled stage)
	return SplitTree(BalancedTree(m), BalancedTree(n/m))
}

// SplitFor returns a top-level split n = m·k suitable for the multicore
// Cooley-Tukey FFT on p processors with cache-line length mu: both factors
// must be multiples of p·mu. Among the valid splits it returns the most
// balanced one (m as close to √n as possible, preferring m ≥ k, which gives
// the strided stage the larger factor). ok is false when no split exists —
// the paper's applicability condition (pµ)² | N fails.
func SplitFor(n, p, mu int) (m int, ok bool) {
	q := p * mu
	if q < 1 || n < q*q {
		return 0, false
	}
	best := 0
	for d := q; d*d <= n; d += q {
		if n%d == 0 && (n/d)%q == 0 {
			best = d
		}
	}
	if best == 0 {
		return 0, false
	}
	return n / best, true // m = larger factor
}

// PowersOfTwo reports whether n is a power of two (n ≥ 1).
func PowersOfTwo(n int) bool { return n > 0 && n&(n-1) == 0 }

func smallestPrimeFactor(n int) int {
	for d := 2; d*d <= n; d++ {
		if n%d == 0 {
			return d
		}
	}
	return n
}
