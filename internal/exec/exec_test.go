package exec

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"

	"spiralfft/internal/codelet"
	"spiralfft/internal/complexvec"
)

const tol = 1e-10

// naiveDFT is the O(n²) oracle.
func naiveDFT(x []complex128) []complex128 {
	k := codelet.Naive(len(x))
	y := make([]complex128, len(x))
	k.Apply(y, 0, 1, x, 0, 1, nil)
	return y
}

func TestTreeBuildersAndValidate(t *testing.T) {
	for _, n := range []int{2, 8, 16, 32, 64, 256, 1024, 6, 12, 60, 100, 360, 7, 31, 37} {
		for name, tr := range map[string]*Tree{"radix": RadixTree(n), "balanced": BalancedTree(n)} {
			if tr.N != n {
				t.Fatalf("%s(%d): N = %d", name, n, tr.N)
			}
			if err := tr.Validate(); err != nil {
				t.Fatalf("%s(%d): %v", name, n, err)
			}
		}
	}
	// Validate rejects inconsistent trees.
	bad := &Tree{N: 8, Left: LeafTree(2), Right: LeafTree(2)}
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted 8 = 2·2")
	}
	var nilTree *Tree
	if err := nilTree.Validate(); err == nil {
		t.Error("Validate accepted nil tree")
	}
}

func TestTreeString(t *testing.T) {
	tr := SplitTree(LeafTree(8), SplitTree(LeafTree(4), LeafTree(2)))
	if s := tr.String(); s != "(8 x (4 x 2))" {
		t.Errorf("String = %q", s)
	}
}

func TestRadixTreePrefersLargeCodelets(t *testing.T) {
	tr := RadixTree(1024) // 256 · 4 with the generated tier registered
	if !tr.Left.Leaf || tr.Left.N != 256 {
		t.Errorf("RadixTree(1024) left = %s", tr.Left.String())
	}
	if tr2 := RadixTree(256); !tr2.Leaf {
		t.Errorf("RadixTree(256) = %s, want codelet leaf", tr2.String())
	}
	// Primes beyond the codelet set become naive leaves.
	if tr3 := RadixTree(37); !tr3.Leaf {
		t.Errorf("RadixTree(37) = %s", tr3.String())
	}
}

func TestRadixTreeCap(t *testing.T) {
	if s := RadixTreeCap(1024, 64).String(); s != "(64 x 16)" {
		t.Errorf("RadixTreeCap(1024, 64) = %s", s)
	}
	if s := RadixTreeCap(128, 64).String(); s != "(64 x 2)" {
		t.Errorf("RadixTreeCap(128, 64) = %s", s)
	}
	if tr := RadixTreeCap(1024, 8); tr.Left.N != 8 || !tr.Left.Leaf {
		t.Errorf("RadixTreeCap(1024, 8) = %s", tr.String())
	}
	// Cap below every codelet divisor: falls back to prime peeling.
	if s := RadixTreeCap(8, 1).String(); s != "(2 x (2 x 2))" {
		t.Errorf("RadixTreeCap(8, 1) = %s", s)
	}
}

func TestSplitFor(t *testing.T) {
	cases := []struct {
		n, p, mu  int
		wantM     int
		wantFound bool
	}{
		{256, 2, 4, 16, true},  // 16·16, both divisible by 8
		{4096, 2, 4, 64, true}, // 64·64
		{64, 2, 4, 8, true},    // 8·8, pµ=8 divides both
		{64, 4, 4, 0, false},   // pµ=16, needs 16·16=256 minimum
		{256, 4, 4, 16, true},  // 16·16
		{32, 2, 4, 0, false},   // no split with both factors ≥ 8 and divisible
		{512, 2, 4, 32, true},  // 32·16 (m = larger factor)
		{1 << 20, 4, 4, 1024, true},
	}
	for _, c := range cases {
		m, ok := SplitFor(c.n, c.p, c.mu)
		if ok != c.wantFound || (ok && m != c.wantM) {
			t.Errorf("SplitFor(%d,%d,%d) = (%d,%v), want (%d,%v)", c.n, c.p, c.mu, m, ok, c.wantM, c.wantFound)
		}
		if ok {
			q := c.p * c.mu
			if m%q != 0 || (c.n/m)%q != 0 {
				t.Errorf("SplitFor(%d,%d,%d): split %d·%d not pµ-divisible", c.n, c.p, c.mu, m, c.n/m)
			}
		}
	}
}

func TestSeqMatchesNaiveAcrossSizes(t *testing.T) {
	sizes := []int{2, 3, 4, 5, 8, 16, 32, 64, 128, 256, 512, 1024, 2048, 4096,
		6, 10, 12, 20, 24, 60, 100, 120, 360, 1000, 7, 9, 11, 13, 25, 27, 49}
	for _, n := range sizes {
		for name, tr := range map[string]*Tree{"radix": RadixTree(n), "balanced": BalancedTree(n)} {
			s, err := NewSeq(tr)
			if err != nil {
				t.Fatalf("NewSeq(%s(%d)): %v", name, n, err)
			}
			x := complexvec.Random(n, uint64(n))
			got := make([]complex128, n)
			s.Transform(got, x, nil)
			want := naiveDFT(x)
			if e := complexvec.RelError(got, want); e > tol {
				t.Errorf("%s(%d) [%s]: rel error %g", name, n, tr.String(), e)
			}
		}
	}
}

func TestSeqInPlace(t *testing.T) {
	n := 256
	s := MustNewSeq(RadixTree(n))
	x := complexvec.Random(n, 5)
	want := naiveDFT(x)
	buf := complexvec.Clone(x)
	s.Transform(buf, buf, s.NewScratch())
	if e := complexvec.RelError(buf, want); e > tol {
		t.Errorf("in-place: rel error %g", e)
	}
}

func TestSeqStrided(t *testing.T) {
	n := 64
	s := MustNewSeq(RadixTree(n))
	ss, ds, soff, doff := 3, 2, 5, 1
	src := complexvec.Random(soff+n*ss, 11)
	dst := make([]complex128, doff+n*ds)
	s.TransformStrided(dst, doff, ds, src, soff, ss, nil, s.NewScratch())
	x := make([]complex128, n)
	for j := 0; j < n; j++ {
		x[j] = src[soff+j*ss]
	}
	want := naiveDFT(x)
	for k := 0; k < n; k++ {
		if e := complexvec.RelError([]complex128{dst[doff+k*ds]}, []complex128{want[k]}); e > tol {
			t.Fatalf("strided output %d wrong", k)
		}
	}
}

func TestSeqScratchTooSmallPanics(t *testing.T) {
	s := MustNewSeq(SplitTree(LeafTree(64), LeafTree(2)))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Transform(make([]complex128, 128), make([]complex128, 128), make([]complex128, 1))
}

func TestSeqDeepUnbalancedTree(t *testing.T) {
	// A fully right-recursive radix-2 tree exercises scratch stacking.
	tr := LeafTree(2)
	for i := 0; i < 7; i++ {
		tr = SplitTree(LeafTree(2), tr)
	}
	if tr.N != 256 {
		t.Fatalf("tree size %d", tr.N)
	}
	s := MustNewSeq(tr)
	x := complexvec.Random(256, 3)
	got := make([]complex128, 256)
	s.Transform(got, x, nil)
	if e := complexvec.RelError(got, naiveDFT(x)); e > tol {
		t.Errorf("deep tree: rel error %g", e)
	}
	// Left-recursive too (composite left children: exercises pre-scaling).
	tl := LeafTree(2)
	for i := 0; i < 5; i++ {
		tl = SplitTree(tl, LeafTree(2))
	}
	s2 := MustNewSeq(tl)
	x2 := complexvec.Random(64, 4)
	got2 := make([]complex128, 64)
	s2.Transform(got2, x2, nil)
	if e := complexvec.RelError(got2, naiveDFT(x2)); e > tol {
		t.Errorf("left-deep tree: rel error %g", e)
	}
}

// randomTree builds a deterministic pseudo-random factorization tree.
func randomTree(n int, seed uint64) *Tree {
	if codelet.HasUnrolled(n) && (seed%3 == 0 || n <= 5) {
		return LeafTree(n)
	}
	var divs []int
	for d := 2; d < n; d++ {
		if n%d == 0 {
			divs = append(divs, d)
		}
	}
	if len(divs) == 0 {
		return LeafTree(n)
	}
	m := divs[seed%uint64(len(divs))]
	return SplitTree(randomTree(m, seed/7+1), randomTree(n/m, seed/3+2))
}

// Property: any well-formed factorization tree computes the DFT.
func TestQuickRandomTreesComputeDFT(t *testing.T) {
	f := func(ni uint8, seed uint64) bool {
		ns := []int{16, 24, 36, 64, 96, 128, 144, 240, 256}
		n := ns[int(ni)%len(ns)]
		tr := randomTree(n, seed+1)
		if err := tr.Validate(); err != nil {
			return false
		}
		s, err := NewSeq(tr)
		if err != nil {
			return false
		}
		x := complexvec.Random(n, seed)
		got := make([]complex128, n)
		s.Transform(got, x, nil)
		return complexvec.RelError(got, naiveDFT(x)) <= tol
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

func TestFlopCount(t *testing.T) {
	if got := FlopCount(1024); math.Abs(got-5*1024*10) > 1e-9 {
		t.Errorf("FlopCount(1024) = %v", got)
	}
}

// Property: Fourier inversion — applying the DFT twice reverses the signal
// (DFT² = n·R where R is index reversal mod n).
func TestQuickDoubleTransformIsReversal(t *testing.T) {
	f := func(seed uint64) bool {
		n := 128
		s := MustNewSeq(RadixTree(n))
		x := complexvec.Random(n, seed)
		y := make([]complex128, n)
		z := make([]complex128, n)
		s.Transform(y, x, nil)
		s.Transform(z, y, nil)
		for i := 0; i < n; i++ {
			want := x[(n-i)%n] * complex(float64(n), 0)
			d := z[i] - want
			if math.Hypot(real(d), imag(d)) > 1e-8*float64(n) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func BenchmarkSeqTransform(b *testing.B) {
	for _, n := range []int{64, 1024, 16384} {
		s := MustNewSeq(RadixTree(n))
		x := complexvec.Random(n, 1)
		y := make([]complex128, n)
		scratch := s.NewScratch()
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				s.Transform(y, x, scratch)
			}
		})
	}
}
