package spiralfft

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"spiralfft/internal/ir"
	"spiralfft/internal/search"
	"spiralfft/internal/smp"
)

// programShapeCases pin the programs behind the benchmark workloads: the
// forward DFT plans of incache-p2 and large-p2 under the default planner
// (the four-step tier forced down to 2^16), and every plan perfbench builds
// under its own planner, PlannerEstimate, with the inverse program pinned
// where a workload runs it. At these sizes the estimate planner ships the
// default planner's DFT programs, so those cases share their goldens.
var programShapeCases = []struct {
	golden string
	family string // "dft", "real" or "wht"
	n      int
	opt    Options
	// inverse pins the inverse program too, in <golden>_inverse.golden.
	inverse bool
}{
	{"program_dft1024_p2", "dft", 1024, Options{Workers: 2}, false},
	{"program_dft4096_p2", "dft", 4096, Options{Workers: 2}, false},
	{"program_fourstep65536_p2", "dft", 1 << 16, Options{Workers: 2, LargeNThreshold: 1 << 16}, false},
	{"program_dft1024_p2", "dft", 1024, Options{Workers: 2, Planner: PlannerEstimate}, false},
	{"program_dft4096_p2", "dft", 4096, Options{Workers: 2, Planner: PlannerEstimate}, true},
	{"program_real4096_p2", "real", 4096, Options{Workers: 2, Planner: PlannerEstimate}, true},
	{"program_wht4096_p2", "wht", 4096, Options{Workers: 2, Planner: PlannerEstimate}, false},
	{"program_fourstep65536_p2", "dft", 1 << 16, Options{Workers: 2, Planner: PlannerEstimate, LargeNThreshold: 1 << 16}, false},
}

// buildShapeCase builds a case's plan and returns the core that holds its
// programs, with the plan's Close.
func buildShapeCase(family string, n int, opt *Options) (*planCore, func(), error) {
	switch family {
	case "real":
		p, err := NewRealPlan(n, opt)
		if err != nil {
			return nil, nil, err
		}
		return &p.half.planCore, func() { p.Close() }, nil
	case "wht":
		p, err := NewWHTPlan(n, opt)
		if err != nil {
			return nil, nil, err
		}
		return &p.planCore, func() { p.Close() }, nil
	}
	p, err := NewPlan(n, opt)
	if err != nil {
		return nil, nil, err
	}
	return &p.planCore, func() { p.Close() }, nil
}

// Each pinned program prints exactly as the golden listing recorded when
// the case was added: the forward for every case, and the inverse where the
// case pins it.
func TestForwardProgramsMatchGolden(t *testing.T) {
	for _, c := range programShapeCases {
		core, closePlan, err := buildShapeCase(c.family, c.n, &c.opt)
		if err != nil {
			t.Fatal(err)
		}
		got := map[string]*ir.Program{c.golden: core.program()}
		if c.inverse {
			inv, err := core.lowerInverse(core.exe.Workers())
			if err != nil {
				t.Fatal(err)
			}
			got[c.golden+"_inverse"] = inv
		}
		for name, prog := range got {
			want, err := os.ReadFile("testdata/" + name + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			if prog.String() != string(want) {
				t.Errorf("%s: program changed:\n%s", name, prog)
			}
		}
		closePlan()
	}
}

// programShape lists a program's buffers, barriers and, per region, each
// worker's op count.
func programShape(p *ir.Program) string {
	var b strings.Builder
	fmt.Fprintf(&b, "n=%d p=%d temps=%v:", p.N, p.P, p.Temps)
	for _, nd := range p.Nodes {
		switch r := nd.(type) {
		case ir.Barrier:
			b.WriteString(" |")
		case *ir.Region:
			fmt.Fprintf(&b, " %s[", r.Name)
			for _, ops := range r.Workers {
				fmt.Fprintf(&b, "%d,", len(ops))
			}
			b.WriteString("]")
		}
	}
	return b.String()
}

// The inverse program runs the forward stages re-parameterized: the same
// regions, barriers and per-worker op counts, on the plan's own backend.
func TestInverseProgramsShareForwardShape(t *testing.T) {
	for _, c := range programShapeCases {
		if c.family != "dft" {
			continue
		}
		p, err := NewPlan(c.n, &c.opt)
		if err != nil {
			t.Fatal(err)
		}
		inv, err := p.lowerInverse(p.Workers())
		if err != nil {
			t.Fatal(err)
		}
		if got, want := programShape(inv), programShape(p.Program()); got != want {
			t.Errorf("%s: inverse shape %s, forward %s", c.golden, got, want)
		}
		// Inverse runs on the plan's backend through the program above.
		x := make([]complex128, c.n)
		if err := p.Inverse(x, x); err != nil {
			t.Fatal(err)
		}
		if e := p.inv.exe; e == nil || e.Backend() != p.backend || programShape(e.Program()) != programShape(inv) {
			t.Errorf("%s: inverse did not run the parallel inverse program", c.golden)
		}
		p.Close()
	}
}

// A real plan's forward program is the half-size complex plan's program
// plus exactly one region, the untangle; its inverse starts with the
// retangle region and then runs the half-size inverse program.
func TestRealProgramIsHalfPlusOneRegion(t *testing.T) {
	for _, c := range []struct {
		n   int
		opt *Options
	}{{4096, &Options{Workers: 2}}, {1024, nil}, {6, &Options{Workers: 2}}} {
		rp, err := NewRealPlan(c.n, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		half, err := NewPlan(c.n/2, c.opt)
		if err != nil {
			t.Fatal(err)
		}
		fwd, want := rp.Program().Regions(), half.Program().Regions()
		if len(fwd) != len(want)+1 || fwd[len(fwd)-1].Name != "untangle" {
			t.Fatalf("n=%d: real program regions %d, half %d", c.n, len(fwd), len(want))
		}
		for i, r := range want {
			if fmt.Sprint(r.Workers) != fmt.Sprint(fwd[i].Workers) {
				t.Errorf("n=%d: region %q differs from the half-size plan's", c.n, r.Name)
			}
		}
		if !strings.Contains(rp.Program().String(), fmt.Sprintf("src=%d dst=%d", c.n/2, c.n/2+1)) {
			t.Errorf("n=%d: real program does not declare its buffer lengths:\n%s", c.n, rp.Program())
		}
		inv, err := rp.half.lowerInverse(rp.half.Workers())
		if err != nil {
			t.Fatal(err)
		}
		halfInv, err := half.lowerInverse(half.Workers())
		if err != nil {
			t.Fatal(err)
		}
		if r := inv.Regions(); len(r) != len(halfInv.Regions())+1 || r[0].Name != "retangle" {
			t.Errorf("n=%d: real inverse regions %d, first %q; half-size inverse has %d",
				c.n, len(r), r[0].Name, len(halfInv.Regions()))
		}
		rp.Close()
		half.Close()
	}
}

// Under the measuring planner a real plan's split search times the real
// program itself (the DFT program finished with its untangle region), and
// the plan ships the executor it timed.
func TestRealPlanMeasureTimesTheRealProgram(t *testing.T) {
	var choice search.ParallelChoice
	orig := tuneParallel
	tuneParallel = func(tu *search.Tuner, n, p, mu int, b smp.Backend, finish search.Finish) (search.ParallelChoice, error) {
		c, err := orig(tu, n, p, mu, b, finish)
		choice = c
		return c, err
	}
	defer func() { tuneParallel = orig }()
	for _, n := range []int{1 << 15, 1 << 16, 1 << 14} {
		choice = search.ParallelChoice{}
		rp, err := NewRealPlan(n, &Options{Workers: 2, Planner: PlannerMeasure})
		if err != nil {
			t.Fatal(err)
		}
		if exe := rp.half.exe; exe != timedWinner(choice) {
			rp.Close()
			t.Fatalf("n=%d: plan runs executor %p, the search timed %p", n, exe, timedWinner(choice))
		}
		if !choice.UsedParallel() {
			rp.Close()
			continue
		}
		regions := choice.Exec.Program().Regions()
		if last := regions[len(regions)-1]; last.Name != "untangle" {
			t.Errorf("n=%d: timed program ends with region %q, want the untangle", n, last.Name)
		}
		rp.Close()
		return
	}
	t.Skip("parallel never won the measurement on this host")
}
