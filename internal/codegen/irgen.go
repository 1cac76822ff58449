package codegen

// This file is the walker of the program generator: it walks a lowered
// ir.Program — the same object the executor runs and the cache simulator
// audits — and emits standalone Go reproducing its exact schedule: one
// goroutine per worker per region, a WaitGroup join at every barrier, codelet
// calls lowered to the unrolled kernels of codegen.go, and twiddle tables
// emitted as literals. Only fully typed forward programs are emitted: Generic
// formula ops, runtime-generated twiddle calls, scaled WHTs and retangle
// passes are rejected. The family wrappers live in family.go.

import (
	"fmt"

	"spiralfft/internal/ir"
)

// emitAll emits every kernel, stage function, table and helper the program
// needs, then the entry function itself.
func (e *emitter) emitAll(entry string) error {
	for _, r := range e.prog.Regions() {
		for _, ops := range r.Workers {
			for _, op := range ops {
				if err := e.prepareOp(op); err != nil {
					return err
				}
			}
		}
	}
	e.emitEntry(entry)
	return nil
}

// prepareOp emits the functions and tables an op needs ahead of the entry.
func (e *emitter) prepareOp(op ir.Op) error {
	switch t := op.(type) {
	case ir.CodeletCall:
		if t.V > 1 {
			return fmt.Errorf("codegen: program %q contains a panel codelet call (%s); the four-step large-N tier is executor-only", e.prog.Name, t)
		}
		if _, ok := e.roots[t.Tree]; !ok {
			capped := capLeaves(t.Tree)
			e.roots[t.Tree] = codeletFn{name: e.emitNode(capped), leaf: capped.Leaf}
		}
		if t.Tw != nil {
			e.vecTable(t.Tw)
		}
	case ir.WHTCall:
		if t.Scale != 0 {
			return fmt.Errorf("codegen: program %q contains a scaled WHT call (%s); only forward programs can be emitted", e.prog.Name, t)
		}
		e.emitWHTRowsHelper()
	case ir.Untangle:
		if t.Inverse {
			return fmt.Errorf("codegen: program %q contains a retangle pass (%s); only forward programs can be emitted", e.prog.Name, t)
		}
		e.emitUntangleHelper()
		e.vecTable(t.W)
	case ir.Scale:
		e.vecTable(t.W)
	case ir.Permute:
		e.permTable(t.Idx)
	case ir.Copy:
		// nothing to prepare
	case ir.Transpose:
		// nothing to prepare
	case ir.CodeletGenCall:
		return fmt.Errorf("codegen: program %q contains a runtime-generated twiddle call (%s); the four-step large-N tier is executor-only", e.prog.Name, t)
	case ir.Generic:
		return fmt.Errorf("codegen: program %q contains a generic formula op (%s); only fully typed programs can be emitted", e.prog.Name, t)
	default:
		return fmt.Errorf("codegen: unknown op type %T", op)
	}
	return nil
}

// vecTable emits (once per distinct slice) a complex vector literal and
// returns its name. Slices are deduplicated by backing-array identity, so the
// per-column views of one twiddle table each get exactly one literal.
func (e *emitter) vecTable(v []complex128) string {
	key := fmt.Sprintf("%p:%d", &v[0], len(v))
	if name, ok := e.vecs[key]; ok {
		return name
	}
	name := fmt.Sprintf("cv%d", len(e.vecs))
	e.vecs[key] = name
	e.complexTable(name, "", v)
	return name
}

// permTable emits (once per distinct table) an index table literal.
func (e *emitter) permTable(idx []int32) string {
	key := fmt.Sprintf("%p:%d", &idx[0], len(idx))
	if name, ok := e.perms[key]; ok {
		return name
	}
	name := fmt.Sprintf("pt%d", len(e.perms))
	e.perms[key] = name
	elems := make([]string, len(idx))
	for i, v := range idx {
		elems[i] = fmt.Sprint(v)
	}
	e.literal(name, "int32", "", 16, elems)
	return name
}

// emitWHTRowsHelper emits the Walsh-Hadamard transform once, in the row
// form every WHTCall lowers to (v = 1 is the plain strided transform). Like
// the executor's exec.WHTRowsScaled it runs the radix-2 stages in fused
// pairs (radix-4 passes) plus one radix-2 pass when log2 n is odd.
func (e *emitter) emitWHTRowsHelper() {
	if e.whtRows {
		return
	}
	e.whtRows = true
	e.printf(`// whtRows computes WHT_n ⊗ I_v over n rows of v contiguous points: row i
// is dst[doff+i*ds : doff+i*ds+v], read from the same span of src at
// soff+i*ss; n must be a power of two and v = 1 is the plain n-point
// transform with strided I/O. Each radix-4 pass performs two radix-2
// stages on whole rows. dst may be src.
func whtRows(dst []complex128, doff, ds int, src []complex128, soff, ss, n, v int) {
	for i := 0; i < n; i++ {
		copy(dst[doff+i*ds:doff+i*ds+v], src[soff+i*ss:soff+i*ss+v])
	}
	row := func(i int) []complex128 { return dst[doff+i*ds : doff+i*ds+v] }
	h := 1
	for ; 4*h <= n; h *= 4 {
		for i := 0; i < n; i += 4 * h {
			for j := i; j < i+h; j++ {
				r0, r1, r2, r3 := row(j), row(j+h), row(j+2*h), row(j+3*h)
				for u := range r0 {
					a, b, c, d := r0[u], r1[u], r2[u], r3[u]
					ab, amb, cd, cmd := a+b, a-b, c+d, c-d
					r0[u], r1[u], r2[u], r3[u] = ab+cd, amb+cmd, ab-cd, amb-cmd
				}
			}
		}
	}
	if h < n {
		for j := 0; j < h; j++ {
			r0, r1 := row(j), row(j+h)
			for u := range r0 {
				a, b := r0[u], r1[u]
				r0[u], r1[u] = a+b, a-b
			}
		}
	}
}

`)
}

// emitUntangleHelper emits the real-input untangle pass over bin pairs
// once, mirroring the executor's ir.Untangle.
func (e *emitter) emitUntangleHelper() {
	if e.untangle {
		return
	}
	e.untangle = true
	e.printf(`// untangle turns the spectrum of the packed signal in src (h points) into
// the half spectrum of the real signal in dst (h+1 bins), over the bin
// pairs (k, h-k) for k in [lo, hi); w[k] = e^{-2πik/(2h)}. dst may be src.
func untangle(dst, src []complex128, h, lo, hi int, w []complex128) {
	for k := lo; k < hi; k++ {
		if k == 0 {
			z0 := src[0]
			dst[0] = complex(real(z0)+imag(z0), 0)
			dst[h] = complex(real(z0)-imag(z0), 0)
			continue
		}
		zk, zc := src[k], src[h-k]
		feR, feI := 0.5*(real(zk)+real(zc)), 0.5*(imag(zk)-imag(zc))
		foR, foI := 0.5*(imag(zk)+imag(zc)), 0.5*(real(zc)-real(zk))
		wr, wi := real(w[k]), imag(w[k])
		tR, tI := wr*foR-wi*foI, wr*foI+wi*foR
		dst[k] = complex(feR+tR, feI+tI)
		if k != h-k {
			dst[h-k] = complex(feR-tR, tI-feI)
		}
	}
}

`)
}

// bufExpr renders the Go expression for an IR buffer.
func bufExpr(b ir.Buf) string {
	switch b {
	case ir.BufSrc:
		return "src"
	case ir.BufDst:
		return "dst"
	default:
		return fmt.Sprintf("t%d", b.TempIndex())
	}
}

// emitEntry emits the entry function: temp allocation, then the program's
// regions in order — inline for P == 1, one goroutine per worker with a
// WaitGroup join per region for P > 1 (the join realizes the IR barrier).
func (e *emitter) emitEntry(entry string) {
	p := e.prog
	e.printf("// %s executes the lowered program %q: n=%d, p=%d.\n", entry, p.Name, p.N, p.P)
	dn, sn := p.BufLen(ir.BufDst), p.BufLen(ir.BufSrc)
	if dn == sn {
		e.printf("// dst == src is allowed.\n")
	}
	e.printf("func %s(dst, src []complex128) {\n", entry)
	e.printf("\tif len(dst) != %d || len(src) != %d {\n\t\tpanic(\"%s: need dst %d, src %d\")\n\t}\n",
		dn, sn, entry, dn, sn)
	for i, l := range p.Temps {
		e.printf("\tt%d := make([]complex128, %d)\n", i, l)
	}
	if p.P > 1 {
		e.printf("\tvar wg sync.WaitGroup\n")
	}
	for _, nd := range p.Nodes {
		r, ok := nd.(*ir.Region)
		if !ok {
			continue // barriers are realized by the per-region joins
		}
		e.printf("\t// region %q\n", r.Name)
		if p.P == 1 {
			for _, op := range r.Workers[0] {
				e.emitOp(op, "\t")
			}
			continue
		}
		active := 0
		for _, ops := range r.Workers {
			if len(ops) > 0 {
				active++
			}
		}
		e.printf("\twg.Add(%d)\n", active)
		for w, ops := range r.Workers {
			if len(ops) == 0 {
				continue
			}
			e.printf("\tgo func() { // worker %d\n\t\tdefer wg.Done()\n", w)
			for _, op := range ops {
				e.emitOp(op, "\t\t")
			}
			e.printf("\t}()\n")
		}
		e.printf("\twg.Wait()\n")
	}
	e.printf("}\n\n")
}

// emitOp emits one op at the given indentation.
func (e *emitter) emitOp(op ir.Op, ind string) {
	switch t := op.(type) {
	case ir.CodeletCall:
		fn := e.roots[t.Tree]
		name, d, s := fn.name, bufExpr(t.Dst), bufExpr(t.Src)
		switch {
		case t.Tw == nil:
			e.printf("%s%s(%s, %d, %d, %s, %d, %d)\n", ind, name, d, t.DOff, t.DS, s, t.SOff, t.SS)
		case fn.leaf:
			e.printf("%s%s_tw(%s, %d, %d, %s, %d, %d, %s)\n", ind, name, d, t.DOff, t.DS, s, t.SOff, t.SS, e.vecTable(t.Tw))
		default:
			// Composite-root twiddled call: pre-scale the strided gather into
			// a contiguous scratch block, exactly like the executor.
			n := t.Tree.N
			e.printf("%s{\n", ind)
			e.printf("%s\tpre := make([]complex128, %d)\n", ind, n)
			e.printf("%s\tfor i := 0; i < %d; i++ {\n", ind, n)
			e.printf("%s\t\tpre[i] = %s[%d+i*%d] * %s[i]\n", ind, s, t.SOff, t.SS, e.vecTable(t.Tw))
			e.printf("%s\t}\n", ind)
			e.printf("%s\t%s(%s, %d, %d, pre, 0, 1)\n", ind, name, d, t.DOff, t.DS)
			e.printf("%s}\n", ind)
		}
	case ir.WHTCall:
		e.printf("%swhtRows(%s, %d, %d, %s, %d, %d, %d, %d)\n",
			ind, bufExpr(t.Dst), t.DOff, t.DS, bufExpr(t.Src), t.SOff, t.SS, t.N, t.Width())
	case ir.Untangle:
		e.printf("%suntangle(%s, %s, %d, %d, %d, %s)\n",
			ind, bufExpr(t.Dst), bufExpr(t.Src), t.H, t.Lo, t.Hi, e.vecTable(t.W))
	case ir.Scale:
		name := e.vecTable(t.W)
		e.printf("%sfor i := 0; i < %d; i++ {\n", ind, len(t.W))
		e.printf("%s\t%s[%d+i] = %s[i] * %s[%d+i]\n", ind, bufExpr(t.Dst), t.Off, name, bufExpr(t.Src), t.Off)
		e.printf("%s}\n", ind)
	case ir.Permute:
		name := e.permTable(t.Idx)
		e.printf("%sfor i, s := range %s {\n", ind, name)
		e.printf("%s\t%s[%d+i] = %s[s]\n", ind, bufExpr(t.Dst), t.Lo, bufExpr(t.Src))
		e.printf("%s}\n", ind)
	case ir.Copy:
		e.printf("%scopy(%s[%d:%d], %s[%d:%d])\n",
			ind, bufExpr(t.Dst), t.DOff, t.DOff+t.N, bufExpr(t.Src), t.SOff, t.SOff+t.N)
	case ir.Transpose:
		e.printf("%sfor j := %d; j < %d; j++ {\n", ind, t.Lo, t.Hi)
		e.printf("%s\tfor i := 0; i < %d; i++ {\n", ind, t.Rows)
		e.printf("%s\t\t%s[%d+j*%d+i] = %s[%d+i*%d+j]\n",
			ind, bufExpr(t.Dst), t.DOff, t.Rows, bufExpr(t.Src), t.SOff, t.Cols)
		e.printf("%s\t}\n%s}\n", ind, ind)
	}
}
