package twiddle

import (
	"math"
	"math/cmplx"
	"sync"
	"testing"
	"testing/quick"
)

const tol = 1e-12

func TestOmegaBasics(t *testing.T) {
	if cmplx.Abs(Omega(4, 0)-1) > tol {
		t.Errorf("ω_4^0 = %v", Omega(4, 0))
	}
	if cmplx.Abs(Omega(4, 1)-(-1i)) > tol {
		t.Errorf("ω_4^1 = %v, want -i", Omega(4, 1))
	}
	if cmplx.Abs(Omega(4, 2)-(-1)) > tol {
		t.Errorf("ω_4^2 = %v, want -1", Omega(4, 2))
	}
	if cmplx.Abs(Omega(2, 1)-(-1)) > tol {
		t.Errorf("ω_2^1 = %v, want -1", Omega(2, 1))
	}
}

func TestOmegaModularReduction(t *testing.T) {
	for _, n := range []int{3, 8, 12} {
		for k := -2 * n; k <= 2*n; k++ {
			a := Omega(n, k)
			b := Omega(n, ((k%n)+n)%n)
			if cmplx.Abs(a-b) > tol {
				t.Fatalf("Omega(%d,%d) != Omega(%d,%d mod n): %v vs %v", n, k, n, k, a, b)
			}
		}
	}
}

func TestOmegaPanicsOnBadN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic for n <= 0")
		}
	}()
	Omega(0, 1)
}

// Property: ω_n^j · ω_n^k == ω_n^{j+k}  (group law).
func TestQuickOmegaGroupLaw(t *testing.T) {
	f := func(j, k uint8) bool {
		n := 360
		a := Omega(n, int(j)) * Omega(n, int(k))
		b := Omega(n, int(j)+int(k))
		return cmplx.Abs(a-b) < 1e-12
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestRootsUnitCircleAndOrder(t *testing.T) {
	n := 16
	w := Roots(n)
	if len(w) != n {
		t.Fatalf("len(Roots) = %d", len(w))
	}
	for k, v := range w {
		if math.Abs(cmplx.Abs(v)-1) > tol {
			t.Errorf("|ω^%d| = %v", k, cmplx.Abs(v))
		}
	}
	// ω^k should equal (ω^1)^k.
	for k := 0; k < n; k++ {
		p := complex128(1)
		for i := 0; i < k; i++ {
			p *= w[1]
		}
		if cmplx.Abs(w[k]-p) > 1e-10 {
			t.Errorf("ω^%d inconsistent: %v vs %v", k, w[k], p)
		}
	}
}

func TestDLayout(t *testing.T) {
	m, n := 4, 2
	d := D(m, n)
	if len(d) != m*n {
		t.Fatalf("len(D) = %d", len(d))
	}
	for i := 0; i < m; i++ {
		for j := 0; j < n; j++ {
			want := Omega(m*n, i*j)
			if cmplx.Abs(d[i*n+j]-want) > tol {
				t.Errorf("D[%d*%d+%d] = %v, want %v", i, n, j, d[i*n+j], want)
			}
		}
	}
	// Row i=0 and column j=0 of the (i,j) grid are all ones.
	for j := 0; j < n; j++ {
		if cmplx.Abs(d[j]-1) > tol {
			t.Errorf("D[0,%d] = %v, want 1", j, d[j])
		}
	}
	for i := 0; i < m; i++ {
		if cmplx.Abs(d[i*n]-1) > tol {
			t.Errorf("D[%d,0] = %v, want 1", i, d[i*n])
		}
	}
}

func TestDColumnMatchesD(t *testing.T) {
	m, n := 8, 4
	d := D(m, n)
	for j := 0; j < n; j++ {
		col := DColumn(m, n, j)
		for i := 0; i < m; i++ {
			if cmplx.Abs(col[i]-d[i*n+j]) > tol {
				t.Errorf("DColumn(%d)[%d] = %v, want %v", j, i, col[i], d[i*n+j])
			}
		}
	}
}

func TestColumnsMatchesDColumn(t *testing.T) {
	m, n := 4, 8
	flat := Columns(m, n)
	if len(flat) != m*n {
		t.Fatalf("len(Columns) = %d", len(flat))
	}
	for j := 0; j < n; j++ {
		col := DColumn(m, n, j)
		for i := 0; i < m; i++ {
			if cmplx.Abs(flat[j*m+i]-col[i]) > tol {
				t.Errorf("Columns[%d,%d] mismatch", j, i)
			}
		}
	}
}

func TestSplitColumnsCoversColumns(t *testing.T) {
	m, n, p := 4, 8, 4
	split := SplitColumns(m, n, p)
	if len(split) != p {
		t.Fatalf("len(split) = %d", len(split))
	}
	flat := Columns(m, n)
	per := n / p
	for c := 0; c < p; c++ {
		if len(split[c]) != m*per {
			t.Fatalf("split[%d] length %d", c, len(split[c]))
		}
		for k, v := range split[c] {
			if cmplx.Abs(v-flat[c*m*per+k]) > tol {
				t.Errorf("split[%d][%d] mismatch", c, k)
			}
		}
	}
}

func TestSplitColumnsPanicsWhenPNotDividingN(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic when p does not divide n")
		}
	}()
	SplitColumns(4, 6, 4)
}

func TestCacheMemoizesAndIsConcurrencySafe(t *testing.T) {
	var c Cache
	a := c.Columns(4, 8)
	b := c.Columns(4, 8)
	if &a[0] != &b[0] {
		t.Error("cache returned distinct tables for the same key")
	}
	if c.Size() != 1 {
		t.Errorf("Size = %d, want 1", c.Size())
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			c.Columns(2, 1<<uint(i%5+1))
		}(i)
	}
	wg.Wait()
	c.Reset()
	if c.Size() != 0 {
		t.Errorf("Size after Reset = %d", c.Size())
	}
	if GlobalCache() == nil {
		t.Error("GlobalCache returned nil")
	}
}

func TestCacheEvictsLeastRecentlyUsed(t *testing.T) {
	var c Cache
	c.SetLimit(3 * 16) // room for three 4x4 tables
	c.Columns(4, 4)    // A
	c.Columns(2, 8)    // B
	c.Columns(8, 2)    // C
	if c.Size() != 3 || c.Elems() != 48 {
		t.Fatalf("size %d elems %d", c.Size(), c.Elems())
	}
	c.Columns(4, 4)  // touch A: B is now the oldest
	c.Columns(16, 1) // D displaces B
	if !c.Contains(4, 4) || !c.Contains(8, 2) || !c.Contains(16, 1) {
		t.Errorf("wrong survivors: size=%d", c.Size())
	}
	if c.Contains(2, 8) {
		t.Error("least-recently-used table not evicted")
	}
	if c.Elems() > 48 {
		t.Errorf("budget exceeded: %d elems", c.Elems())
	}
}

func TestCacheOversizedTableStillServed(t *testing.T) {
	var c Cache
	c.SetLimit(8)
	small := c.Columns(2, 2)
	big := c.Columns(8, 8) // 64 elems, alone over budget
	if len(big) != 64 || len(small) != 4 {
		t.Fatal("wrong table lengths")
	}
	// The oversized table is accounted per entry, outside the shared pool:
	// both it and the small table stay resident.
	if !c.Contains(2, 2) || !c.Contains(8, 8) {
		t.Errorf("eviction policy wrong: size=%d elems=%d", c.Size(), c.Elems())
	}
	// A third distinct oversized shape displaces the least-recent of the two
	// over-budget residents; the small shared-pool table is untouched.
	c.Columns(4, 4)  // 16 elems, over budget too
	c.Columns(16, 4) // third over-budget shape: (8,8) is now the LRU of the pair
	if c.Contains(8, 8) || !c.Contains(4, 4) || !c.Contains(16, 4) {
		t.Errorf("over-budget eviction wrong: size=%d", c.Size())
	}
	if !c.Contains(2, 2) {
		t.Error("over-budget insertions evicted a within-budget table")
	}
	// Evicted tables remain valid for holders.
	for i, w := range big {
		if w != Columns(8, 8)[i] {
			t.Fatalf("held slice corrupted at %d", i)
		}
	}
	_ = small
}

// TestCacheOverBudgetAlternationNoThrash is the regression test for the
// eviction thrash bug: evictLocked used to spare an over-budget table only
// while it was the entry being inserted, so two plan shapes whose tables
// each exceed the whole budget recomputed their full tables on every plan
// build when built in alternation. With per-entry accounting the pair stays
// resident: after the first build of each, alternation is all cache hits.
func TestCacheOverBudgetAlternationNoThrash(t *testing.T) {
	var c Cache
	c.SetLimit(8)
	computes := 0
	lookup := func(m, n int) {
		if !c.Contains(m, n) {
			computes++
		}
		c.Columns(m, n)
	}
	for i := 0; i < 8; i++ {
		lookup(8, 8)  // 64 elems, over budget
		lookup(16, 4) // 64 elems, over budget
	}
	if computes != 2 {
		t.Fatalf("alternating over-budget sizes computed %d tables, want 2 (thrash)", computes)
	}
	// A small insertion must not displace the over-budget residents either
	// (the other half of the thrash: every plan build touches small tables).
	lookup(2, 2)
	if !c.Contains(8, 8) || !c.Contains(16, 4) {
		t.Error("small insertion evicted an over-budget resident")
	}
}

func TestCacheUnlimitedAndResetKeepBudget(t *testing.T) {
	var c Cache
	c.SetLimit(-1)
	for i := 1; i <= 20; i++ {
		c.Columns(i, 4)
	}
	if c.Size() != 20 {
		t.Errorf("unlimited cache evicted: %d", c.Size())
	}
	c.Reset()
	if c.Size() != 0 || c.Elems() != 0 {
		t.Errorf("Reset left %d tables / %d elems", c.Size(), c.Elems())
	}
	c.SetLimit(0) // back to the default budget
	c.Columns(4, 4)
	if !c.Contains(4, 4) {
		t.Error("default budget evicted a tiny table")
	}
}

// FillRow must agree with Omega element for element: it is the chunked
// generation path the four-step tier uses in place of an N-element table.
func TestFillRowMatchesOmega(t *testing.T) {
	cases := []struct{ den, row, off, n int }{
		{4096, 0, 0, 64},
		{4096, 7, 0, 64},
		{4096, 63, 100, 300},
		{1 << 20, 12345, 1 << 19, 1000},
		{12, 5, 3, 12},
		{1, 0, 0, 5},
		{1 << 22, (1 << 11) - 1, 1 << 21, 2048},
	}
	for _, tc := range cases {
		dst := make([]complex128, tc.n)
		FillRow(dst, tc.den, tc.row, tc.off)
		for k, got := range dst {
			want := Omega(tc.den, tc.row*((tc.off+k)%tc.den)%tc.den)
			if cmplx.Abs(got-want) > tol {
				t.Fatalf("FillRow(den=%d,row=%d,off=%d)[%d] = %v, want %v",
					tc.den, tc.row, tc.off, k, got, want)
			}
		}
	}
}

// FillRow over a full row must reproduce row i of the D_{m,n} table.
func TestFillRowMatchesD(t *testing.T) {
	const m, n = 16, 48
	d := D(m, n)
	row := make([]complex128, n)
	for i := 0; i < m; i++ {
		FillRow(row, m*n, i, 0)
		for j := 0; j < n; j++ {
			if cmplx.Abs(row[j]-d[i*n+j]) > tol {
				t.Fatalf("FillRow row %d col %d = %v, want %v", i, j, row[j], d[i*n+j])
			}
		}
	}
}
