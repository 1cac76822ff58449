package cachesim

import (
	"spiralfft/internal/ir"
)

// programTracer adapts an ir.Program: every barrier-separated region is one
// stage, and buffer ids are the program's own (src, dst, temps). This is the
// adapter that lets the Definition-1 audits run against the production
// plans — the root plan families all execute lowered ir.Programs, and the
// very same programs trace here.
type programTracer struct{ p *ir.Program }

func (t programTracer) Workers() int           { return t.p.P }
func (t programTracer) Stages() int            { return t.p.TraceStages() }
func (t programTracer) StageName(s int) string { return t.p.TraceStageName(s) }
func (t programTracer) Work(s, w int) float64  { return t.p.TraceWork(s, w) }
func (t programTracer) NumBufs() int           { return t.p.NumBufs() }
func (t programTracer) BufLen(b int) int       { return t.p.BufLen(ir.Buf(b)) }
func (t programTracer) Trace(s, w int, visit func(buf, idx int, write bool)) {
	t.p.TraceAccesses(s, w, func(b ir.Buf, idx int, write bool) {
		visit(int(b), idx, write)
	})
}

// AnalyzeProgram analyzes a lowered IR program under line length mu.
func AnalyzeProgram(p *ir.Program, mu int) Report {
	return Analyze(programTracer{p}, mu)
}
