// Package cachesim is a trace-driven cache-line ownership simulator. It
// measures, per barrier-separated stage of a parallel plan, exactly the two
// quantities the paper's Definition 1 formalizes:
//
//   - false sharing: cache lines touched by more than one processor within a
//     stage with at least one write among the accesses (such lines ping-pong
//     between caches under an invalidation protocol);
//   - load balance: the spread of arithmetic work across processors.
//
// The paper proves that formulas produced by its rewriting system avoid
// false sharing and are load balanced; this simulator verifies both claims
// dynamically on the access patterns of the lowered IR programs the plans
// execute (AnalyzeProgram), and demonstrates that the naive (cyclic)
// parallelization the paper contrasts against does incur false sharing.
package cachesim

import (
	"fmt"
	"strings"
)

// Tracer exposes the per-stage, per-worker shared-memory access pattern of a
// parallel plan.
type Tracer interface {
	// Workers returns the processor count p.
	Workers() int
	// Stages returns the number of barrier-separated stages.
	Stages() int
	// StageName names a stage for reports.
	StageName(stage int) string
	// Trace reports every shared access of worker w in the stage. buf
	// disambiguates distinct shared vectors; idx is the element index.
	Trace(stage, worker int, visit func(buf, idx int, write bool))
	// Work returns the arithmetic work of worker w in the stage (flops).
	Work(stage, worker int) float64
	// NumBufs returns how many distinct buf ids Trace may emit, and BufLen
	// the element length of buffer b: Analyze keeps dense per-buffer line
	// tables, which matters for multi-megabyte transforms.
	NumBufs() int
	BufLen(b int) int
}

// lineUse accumulates which workers touched a line and how.
type lineUse struct {
	readers uint64 // bitmask over workers (p ≤ 64)
	writers uint64
}

// StageReport holds the per-stage metrics.
type StageReport struct {
	Name string
	// FalseSharedLines counts lines accessed by ≥ 2 workers with ≥ 1 write.
	FalseSharedLines int
	// SharedReadLines counts read-only lines touched by ≥ 2 workers
	// (harmless: they replicate in S state).
	SharedReadLines int
	// Lines is the total number of distinct lines touched.
	Lines int
	// Work is the per-worker arithmetic work.
	Work []float64
	// Imbalance is max(work)/mean(work); 1.0 is perfect. Zero-work stages
	// report 1.0.
	Imbalance float64
}

// Report aggregates a full plan analysis.
type Report struct {
	P      int
	Mu     int
	Stages []StageReport
}

// TotalFalseSharedLines sums false-shared lines over all stages.
func (r Report) TotalFalseSharedLines() int {
	s := 0
	for _, st := range r.Stages {
		s += st.FalseSharedLines
	}
	return s
}

// MaxImbalance returns the worst stage imbalance.
func (r Report) MaxImbalance() float64 {
	m := 1.0
	for _, st := range r.Stages {
		if st.Imbalance > m {
			m = st.Imbalance
		}
	}
	return m
}

// FalseSharingFree reports whether no stage exhibits false sharing.
func (r Report) FalseSharingFree() bool { return r.TotalFalseSharedLines() == 0 }

// String renders a compact table.
func (r Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "cachesim: p=%d µ=%d\n", r.P, r.Mu)
	for _, st := range r.Stages {
		fmt.Fprintf(&b, "  %-8s lines=%-6d falseShared=%-5d sharedRead=%-5d imbalance=%.3f\n",
			st.Name, st.Lines, st.FalseSharedLines, st.SharedReadLines, st.Imbalance)
	}
	return b.String()
}

// Analyze runs the tracer through the line-ownership model with cache-line
// length mu (in elements).
func Analyze(t Tracer, mu int) Report {
	if mu < 1 {
		panic(fmt.Sprintf("cachesim: Analyze(µ=%d)", mu))
	}
	p := t.Workers()
	if p > 64 {
		panic("cachesim: more than 64 workers unsupported")
	}
	rep := Report{P: p, Mu: mu}
	// Dense tables: one contiguous slice per stage, buffers laid end to end.
	lines := 0
	offsets := make([]int, t.NumBufs())
	for b := range offsets {
		offsets[b] = lines
		lines += (t.BufLen(b) + mu - 1) / mu
	}
	for s := 0; s < t.Stages(); s++ {
		uses := make([]lineUse, lines)
		for w := 0; w < p; w++ {
			bit := uint64(1) << uint(w)
			t.Trace(s, w, func(buf, idx int, write bool) {
				u := &uses[offsets[buf]+idx/mu]
				if write {
					u.writers |= bit
				} else {
					u.readers |= bit
				}
			})
		}
		sr := StageReport{Name: t.StageName(s), Work: make([]float64, p)}
		for i := range uses {
			u := &uses[i]
			all := u.readers | u.writers
			if all == 0 {
				continue
			}
			sr.Lines++
			touchers := popcount(all)
			if touchers >= 2 && u.writers != 0 {
				sr.FalseSharedLines++
			} else if touchers >= 2 {
				sr.SharedReadLines++
			}
		}
		total := 0.0
		maxW := 0.0
		for w := 0; w < p; w++ {
			sr.Work[w] = t.Work(s, w)
			total += sr.Work[w]
			if sr.Work[w] > maxW {
				maxW = sr.Work[w]
			}
		}
		if total > 0 {
			sr.Imbalance = maxW / (total / float64(p))
		} else {
			sr.Imbalance = 1.0
		}
		rep.Stages = append(rep.Stages, sr)
	}
	return rep
}

func popcount(v uint64) int {
	c := 0
	for ; v != 0; v &= v - 1 {
		c++
	}
	return c
}
