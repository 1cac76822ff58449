// Package cliopts centralizes the option/flag vocabulary shared by the
// repo's commands (dft, tune, benchfig3, fftd). Each command used to spell
// its own worker/µ/strategy/timer flags with drifting names and defaults;
// this package registers them once, with one set of defaults, and owns the
// string → enum mappings so a new command cannot introduce a seventh copy.
package cliopts

import (
	"flag"
	"fmt"
	"runtime"
	"time"

	"spiralfft"
	"spiralfft/internal/search"
)

// Plan is the shared plan-shaping flag group: how many workers, what
// cache-line length, which planner, and how much planning time.
type Plan struct {
	// Workers is the worker count p (-p, aliased -workers; default NumCPU).
	Workers int
	// Mu is the cache-line length µ in complex128 elements (-mu, default 4).
	Mu int
	// Planner is the planner name (-planner): fixed | estimate | measure |
	// exhaustive.
	Planner string
	// Budget bounds measuring planners' search time (-plan-budget; 0 = unbounded).
	Budget time.Duration
}

// RegisterPlan registers the plan flag group on fs. The worker count
// answers to both -p (the paper's symbol, used by tune/benchfig3) and
// -workers (the original dft spelling) so neither command line breaks.
func RegisterPlan(fs *flag.FlagSet) *Plan {
	p := &Plan{}
	fs.IntVar(&p.Workers, "p", runtime.NumCPU(), "worker count p")
	fs.IntVar(&p.Workers, "workers", runtime.NumCPU(), "worker count p (alias for -p)")
	fs.IntVar(&p.Mu, "mu", 4, "cache-line length µ in complex128 elements")
	fs.StringVar(&p.Planner, "planner", "fixed", "planner: fixed | estimate | measure | exhaustive")
	fs.DurationVar(&p.Budget, "plan-budget", 0, "bound on measured planning time (0 = unbounded)")
	return p
}

// Options materializes the group as plan options (validated by the
// constructors downstream).
func (p *Plan) Options() (*spiralfft.Options, error) {
	pl, err := ParsePlanner(p.Planner)
	if err != nil {
		return nil, err
	}
	return &spiralfft.Options{
		Workers:          p.Workers,
		CacheLineComplex: p.Mu,
		Planner:          pl,
		PlanBudget:       p.Budget,
	}, nil
}

// Timing is the shared measurement flag group for commands that time
// candidates (tune, benchfig3).
type Timing struct {
	// MinTime is the minimum measuring time per candidate (-mintime).
	MinTime time.Duration
	// Repeats is the median-of count per measurement (-repeats).
	Repeats int
}

// RegisterTiming registers the timing flag group on fs with the given
// per-candidate default.
func RegisterTiming(fs *flag.FlagSet, defaultMinTime time.Duration) *Timing {
	t := &Timing{}
	fs.DurationVar(&t.MinTime, "mintime", defaultMinTime, "minimum measuring time per candidate")
	fs.IntVar(&t.Repeats, "repeats", 3, "repeated measurements per candidate (median wins)")
	return t
}

// Config converts the group to the tuner's timer configuration.
func (t *Timing) Config() search.TimerConfig {
	return search.TimerConfig{MinTime: t.MinTime, Repeats: t.Repeats}
}

// ParsePlanner maps a planner name to the public enum.
func ParsePlanner(name string) (spiralfft.Planner, error) {
	switch name {
	case "fixed", "":
		return spiralfft.PlannerFixed, nil
	case "estimate":
		return spiralfft.PlannerEstimate, nil
	case "measure":
		return spiralfft.PlannerMeasure, nil
	case "exhaustive":
		return spiralfft.PlannerExhaustive, nil
	}
	return 0, fmt.Errorf("unknown planner %q (want fixed | estimate | measure | exhaustive)", name)
}

// ParseStrategy maps a search-strategy name to the tuner enum.
func ParseStrategy(name string) (search.Strategy, error) {
	switch name {
	case "dp", "":
		return search.StrategyDP, nil
	case "estimate":
		return search.StrategyEstimate, nil
	case "exhaustive":
		return search.StrategyExhaustive, nil
	case "random":
		return search.StrategyRandom, nil
	case "evolve":
		return search.StrategyEvolve, nil
	}
	return 0, fmt.Errorf("unknown strategy %q (want dp | estimate | exhaustive | random | evolve)", name)
}
