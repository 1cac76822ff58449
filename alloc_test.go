package spiralfft

import (
	"testing"

	"spiralfft/internal/complexvec"
)

// TestSteadyStateAllocations: after planning, transforms must not allocate —
// the production requirement that lets plans run in tight real-time loops
// without GC pressure.
func TestSteadyStateAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector makes sync.Pool drop items at random; allocation counts are meaningless")
	}
	cases := []struct {
		name string
		opts *Options
		max  float64
	}{
		{"sequential", nil, 0},
		{"parallel-pool", &Options{Workers: 2}, 0},
		{"four-step", &Options{LargeNThreshold: 1024}, 0},
		{"four-step-parallel", &Options{Workers: 2, LargeNThreshold: 1024}, 0},
	}
	for _, c := range cases {
		p, err := NewPlan(1024, c.opts)
		if err != nil {
			t.Fatal(err)
		}
		if four := c.opts != nil && c.opts.LargeNThreshold > 0; p.IsFourStep() != four {
			t.Fatalf("%s: four-step %v, want %v", c.name, p.IsFourStep(), four)
		}
		x := complexvec.Random(1024, 1)
		y := make([]complex128, 1024)
		if err := p.Forward(y, x); err != nil { // warm up
			t.Fatal(err)
		}
		if got := testing.AllocsPerRun(100, func() { p.Forward(y, x) }); got > c.max {
			t.Errorf("%s Forward: %.1f allocs/op, want ≤ %.0f", c.name, got, c.max)
		}
		if got := testing.AllocsPerRun(100, func() { p.Inverse(y, x) }); got > c.max {
			t.Errorf("%s Inverse: %.1f allocs/op, want ≤ %.0f", c.name, got, c.max)
		}
		// In place: a four-step plan runs its aliased program, built by the
		// warm-up call; after that it allocates nothing either.
		p.Forward(y, y)
		p.Inverse(y, y)
		if got := testing.AllocsPerRun(100, func() { p.Forward(y, y) }); got > c.max {
			t.Errorf("%s Forward in place: %.1f allocs/op, want ≤ %.0f", c.name, got, c.max)
		}
		if got := testing.AllocsPerRun(100, func() { p.Inverse(y, y) }); got > c.max {
			t.Errorf("%s Inverse in place: %.1f allocs/op, want ≤ %.0f", c.name, got, c.max)
		}
		p.Close()
	}

	// Batch plans too.
	b, err := NewBatchPlan(256, 8, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	bx := complexvec.Random(256*8, 1)
	by := make([]complex128, 256*8)
	b.Forward(by, bx)
	if got := testing.AllocsPerRun(50, func() { b.Forward(by, bx) }); got > 0 {
		t.Errorf("batch Forward: %.1f allocs/op", got)
	}

	if got := testing.AllocsPerRun(50, func() { b.Inverse(by, bx) }); got > 0 {
		t.Errorf("batch Inverse: %.1f allocs/op", got)
	}

	// 2D and WHT inverses, parallel.
	p2, err := NewPlan2D(32, 64, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	x2 := complexvec.Random(32*64, 1)
	y2 := make([]complex128, 32*64)
	if got := testing.AllocsPerRun(50, func() { p2.Inverse(y2, x2) }); got > 0 {
		t.Errorf("2D Inverse: %.1f allocs/op", got)
	}
	wp, err := NewWHTPlan(4096, &Options{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer wp.Close()
	xw := complexvec.Random(4096, 1)
	yw := make([]complex128, 4096)
	if got := testing.AllocsPerRun(50, func() { wp.Inverse(yw, xw) }); got > 0 {
		t.Errorf("WHT Inverse: %.1f allocs/op", got)
	}

	// Real plans, sequential, parallel and four-step, both directions.
	for _, opts := range []*Options{nil, {Workers: 2}, {Workers: 2, LargeNThreshold: 512}} {
		rp, err := NewRealPlan(1024, opts)
		if err != nil {
			t.Fatal(err)
		}
		xr := randomReal(1024, 1)
		spec := make([]complex128, 513)
		rp.Forward(spec, xr)
		if got := testing.AllocsPerRun(50, func() { rp.Forward(spec, xr) }); got > 0 {
			t.Errorf("real Forward %+v: %.1f allocs/op", opts, got)
		}
		if got := testing.AllocsPerRun(50, func() { rp.Inverse(xr, spec) }); got > 0 {
			t.Errorf("real Inverse %+v: %.1f allocs/op", opts, got)
		}
		rp.Close()
	}
}
