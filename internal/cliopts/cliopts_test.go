package cliopts

import (
	"flag"
	"testing"
	"time"

	"spiralfft"
	"spiralfft/internal/search"
)

func TestRegisterPlanAliases(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	p := RegisterPlan(fs)
	if err := fs.Parse([]string{"-p", "3", "-mu", "8", "-planner", "measure", "-plan-budget", "50ms"}); err != nil {
		t.Fatal(err)
	}
	if p.Workers != 3 || p.Mu != 8 || p.Planner != "measure" || p.Budget != 50*time.Millisecond {
		t.Fatalf("parsed %+v", p)
	}
	opts, err := p.Options()
	if err != nil {
		t.Fatal(err)
	}
	if opts.Workers != 3 || opts.CacheLineComplex != 8 || opts.Planner != spiralfft.PlannerMeasure || opts.PlanBudget != 50*time.Millisecond {
		t.Fatalf("options %+v", opts)
	}

	// -workers is an alias for -p.
	fs2 := flag.NewFlagSet("t", flag.ContinueOnError)
	p2 := RegisterPlan(fs2)
	if err := fs2.Parse([]string{"-workers", "5"}); err != nil {
		t.Fatal(err)
	}
	if p2.Workers != 5 {
		t.Fatalf("-workers alias: got %d, want 5", p2.Workers)
	}
}

func TestParsePlanner(t *testing.T) {
	cases := map[string]spiralfft.Planner{
		"fixed": spiralfft.PlannerFixed, "": spiralfft.PlannerFixed,
		"estimate": spiralfft.PlannerEstimate, "measure": spiralfft.PlannerMeasure,
		"exhaustive": spiralfft.PlannerExhaustive,
	}
	for name, want := range cases {
		got, err := ParsePlanner(name)
		if err != nil || got != want {
			t.Errorf("ParsePlanner(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParsePlanner("bogus"); err == nil {
		t.Error("ParsePlanner(bogus): no error")
	}
}

func TestParseStrategy(t *testing.T) {
	cases := map[string]search.Strategy{
		"dp": search.StrategyDP, "": search.StrategyDP,
		"estimate": search.StrategyEstimate, "exhaustive": search.StrategyExhaustive,
		"random": search.StrategyRandom, "evolve": search.StrategyEvolve,
	}
	for name, want := range cases {
		got, err := ParseStrategy(name)
		if err != nil || got != want {
			t.Errorf("ParseStrategy(%q) = %v, %v; want %v", name, got, err, want)
		}
	}
	if _, err := ParseStrategy("bogus"); err == nil {
		t.Error("ParseStrategy(bogus): no error")
	}
}

func TestTimingConfig(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	tm := RegisterTiming(fs, time.Millisecond)
	if err := fs.Parse([]string{"-mintime", "7ms", "-repeats", "5"}); err != nil {
		t.Fatal(err)
	}
	cfg := tm.Config()
	if cfg.MinTime != 7*time.Millisecond || cfg.Repeats != 5 {
		t.Fatalf("config %+v", cfg)
	}
}
