package ir

import (
	"fmt"
)

// IR→IR folding passes: the paper's loop merging, performed on lowered
// programs instead of formulas. Fold absorbs permutation stages into the
// gather/scatter strides of adjacent compute stages and twiddle diagonal
// stages into the codelet calls' fused input scale — turning the faithful
// stage-by-stage rendition FromFormula emits (for formula (14): perm, perm,
// codelets, scale, perm, codelets, perm) into the two-compute-region,
// one-barrier schedule the production lowering (LowerCT) builds directly.
//
// All folds are guarded: a stage folds only when its buffer is a temp used
// by no other stage, its permutation covers the buffer, and every rewritten
// access pattern stays affine. Anything that fails a guard simply stays — a
// folded program is always observationally equivalent to its input.

// Fold applies the loop-merging passes to fixpoint and returns a new
// program; prog is not modified. It expects the alternating
// region/barrier/region shape the lowerings emit.
func Fold(prog *Program) (*Program, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	regions := copyRegions(prog.Regions())
	for changed := true; changed; {
		changed = false
		for i := 0; i+1 < len(regions); i++ {
			if foldPair(prog, regions, i) {
				regions = dropEmpty(regions)
				changed = true
				break
			}
		}
	}
	out := &Program{Name: prog.Name, N: prog.N, SrcN: prog.SrcN, DstN: prog.DstN, P: prog.P, Mu: prog.Mu, Temps: prog.Temps}
	for i, r := range regions {
		if i > 0 {
			out.Nodes = append(out.Nodes, Barrier{})
		}
		out.Nodes = append(out.Nodes, r)
	}
	compactTemps(out)
	if err := out.Validate(); err != nil {
		return nil, fmt.Errorf("ir: Fold produced invalid program: %w", err)
	}
	return out, nil
}

// foldPair tries each fold between regions[i] and regions[i+1].
func foldPair(prog *Program, regions []*Region, i int) bool {
	switch {
	case foldPermPerm(prog, regions, i):
		return true
	case foldPermIntoGathers(prog, regions, i):
		return true
	case foldScatterPerm(prog, regions, i):
		return true
	case foldScaleIntoCalls(prog, regions, i):
		return true
	}
	return false
}

// ---------------------------------------------------------------------------
// Fold guards

// soleLink reports whether the def of temp x flowing from regions[i] to
// regions[i+1] is the buffer's only live use: every op of regions[i] writes
// x (and reads elsewhere), every op of regions[i+1] reads x (and writes
// elsewhere), and no later region reads this def of x — the forward scan
// stops once a region fully redefines x (the ping-pong lowering reuses
// temps; a complete overwrite starts a fresh def, and reads beyond it see
// that def, not ours). Earlier defs of x are dead only if regions[i]
// overwrites x completely, which each fold enforces with its own coverage
// check.
func soleLink(prog *Program, regions []*Region, i int, x Buf) bool {
	if !x.IsTemp() {
		return false
	}
	a, b := regions[i], regions[i+1]
	for _, ops := range a.Workers {
		for _, op := range ops {
			if f := op.Footprint(); f.Write.Buf != x || f.Read.Buf == x {
				return false
			}
		}
	}
	for _, ops := range b.Workers {
		for _, op := range ops {
			if f := op.Footprint(); f.Read.Buf != x || f.Write.Buf == x {
				return false
			}
		}
	}
	for j := i + 2; j < len(regions); j++ {
		if touches(regions[j], x, false) {
			return false
		}
		if coversBuf(prog, regions[j], x) {
			break
		}
	}
	return true
}

// coversBuf reports whether region r writes every element of buffer x.
func coversBuf(prog *Program, r *Region, x Buf) bool {
	n := prog.BufLen(x)
	written := make([]bool, n)
	cnt := 0
	for _, ops := range r.Workers {
		for _, op := range ops {
			if f := op.Footprint(); f.Write.Buf == x {
				f.Write.each(func(d int) {
					if d >= 0 && d < n && !written[d] {
						written[d] = true
						cnt++
					}
				})
			}
		}
	}
	return cnt == n
}

// side returns the buffer op writes (write) or reads.
func side(op Op, write bool) Buf {
	f := op.Footprint()
	if write {
		return f.Write.Buf
	}
	return f.Read.Buf
}

// soleBuf returns the single buffer region r writes (write) or reads, or -1.
func soleBuf(r *Region, write bool) Buf {
	b := Buf(-1)
	for _, ops := range r.Workers {
		for _, op := range ops {
			if x := side(op, write); b == -1 {
				b = x
			} else if x != b {
				return -1
			}
		}
	}
	return b
}

// touches reports whether any op of r writes (write) or reads x. Folds use
// it to reject a region that would read and write one buffer concurrently
// (workers would race on positions they don't own).
func touches(r *Region, x Buf, write bool) bool {
	for _, ops := range r.Workers {
		for _, op := range ops {
			if side(op, write) == x {
				return true
			}
		}
	}
	return false
}

// every reports whether keep holds for every op of r; an empty region fails.
func every(r *Region, keep func(Op) bool) bool {
	any := false
	for _, ops := range r.Workers {
		for _, op := range ops {
			if !keep(op) {
				return false
			}
			any = true
		}
	}
	return any
}

// is reports whether op is a T.
func is[T Op](op Op) bool {
	_, ok := op.(T)
	return ok
}

// isCall reports whether op is a codelet or WHT call: the ops whose gather
// and scatter strides the folds may rewrite.
func isCall(op Op) bool { return is[CodeletCall](op) || is[WHTCall](op) }

// permMap materializes a permutation region's full output←source map over
// buffer x (length n). Returns nil unless every element of x is written
// exactly once.
func permMap(r *Region, n int) []int32 {
	tbl := make([]int32, n)
	seen := make([]bool, n)
	cnt := 0
	for _, ops := range r.Workers {
		for _, op := range ops {
			p := op.(Permute)
			for t, s := range p.Idx {
				d := p.Lo + t
				if d >= n || seen[d] {
					return nil
				}
				seen[d] = true
				tbl[d] = s
				cnt++
			}
		}
	}
	if cnt != n {
		return nil
	}
	return tbl
}

// affine checks that f maps point u < v of row i < n to base + i·stride + u
// and returns (base, stride): for v = 1, that f is affine over i. n ≥ 1;
// for n == 1 the stride is v. Rows of v > 1 points must not overlap and
// must ascend (stride ≥ v), as the row-form WHTCall requires.
func affine(n, v int, f func(i, u int) int) (base, stride int, ok bool) {
	base, stride = f(0, 0), v
	if n > 1 {
		stride = f(1, 0) - base
	}
	if stride == 0 || (v > 1 && stride < v) {
		return 0, 0, false
	}
	for i := 0; i < n; i++ {
		for u := 0; u < v; u++ {
			if f(i, u) != base+i*stride+u {
				return 0, 0, false
			}
		}
	}
	return base, stride, true
}

// ---------------------------------------------------------------------------
// The folds

// foldPermPerm merges two adjacent permutation stages (perm ∘ perm) into
// one, keeping the consumer's worker partition.
func foldPermPerm(prog *Program, regions []*Region, i int) bool {
	a, b := regions[i], regions[i+1]
	if !every(a, is[Permute]) || !every(b, is[Permute]) {
		return false
	}
	x := soleBuf(a, true)
	if x == -1 || !soleLink(prog, regions, i, x) {
		return false
	}
	src := soleBuf(a, false)
	if src == -1 || touches(b, src, true) {
		return false
	}
	tbl := permMap(a, prog.BufLen(x))
	if tbl == nil {
		return false
	}
	for w, ops := range b.Workers {
		for j, op := range ops {
			p := op.(Permute)
			idx := make([]int32, len(p.Idx))
			for t, s := range p.Idx {
				idx[t] = tbl[s]
			}
			b.Workers[w][j] = Permute{Dst: p.Dst, Src: src, Lo: p.Lo, Idx: idx}
		}
	}
	clearRegion(a)
	return true
}

// foldPermIntoGathers absorbs a permutation stage into the gather strides of
// the following compute stage (L folded into stage-1 loads — the right-side
// merge of formula (14)). Every rewritten access pattern must stay affine.
func foldPermIntoGathers(prog *Program, regions []*Region, i int) bool {
	a, b := regions[i], regions[i+1]
	if !every(a, is[Permute]) || !every(b, isCall) {
		return false
	}
	x := soleBuf(a, true)
	if x == -1 || !soleLink(prog, regions, i, x) {
		return false
	}
	src := soleBuf(a, false)
	if src == -1 || touches(b, src, true) {
		return false
	}
	tbl := permMap(a, prog.BufLen(x))
	if tbl == nil {
		return false
	}
	// Dry-run the affine checks before mutating anything.
	rws := make(map[[2]int]Footprint)
	for w, ops := range b.Workers {
		for j, op := range ops {
			f := op.Footprint()
			s := f.Read.Spans[0]
			base, stride, ok := affine(s.Rows, s.Width, func(i, u int) int { return int(tbl[s.Off+i*s.Stride+u]) })
			if !ok {
				return false
			}
			f.Read.Buf, f.Read.Spans[0].Off, f.Read.Spans[0].Stride = src, base, stride
			rws[[2]int{w, j}] = f
		}
	}
	for w, ops := range b.Workers {
		for j, op := range ops {
			b.Workers[w][j] = op.Moved(rws[[2]int{w, j}])
		}
	}
	clearRegion(a)
	return true
}

// foldScatterPerm absorbs a permutation stage into the scatter strides of
// the preceding compute stage (L folded into stage-2 stores — the left-side
// merge of formula (14)), via the permutation's inverse.
func foldScatterPerm(prog *Program, regions []*Region, i int) bool {
	a, b := regions[i], regions[i+1]
	if !every(a, isCall) || !every(b, is[Permute]) {
		return false
	}
	x := soleBuf(a, true)
	if x == -1 || !soleLink(prog, regions, i, x) {
		return false
	}
	out := soleBuf(b, true)
	if out == -1 || touches(a, out, false) {
		return false
	}
	n := prog.BufLen(x)
	// a must define every element of x: b reads all of it, and positions a
	// left stale would silently vanish from the folded program.
	written := make([]bool, n)
	wcnt, twice := 0, false
	for _, ops := range a.Workers {
		for _, op := range ops {
			f := op.Footprint()
			f.Write.each(func(d int) {
				twice = twice || written[d]
				written[d] = true
				wcnt++
			})
		}
	}
	if twice || wcnt != n {
		return false
	}
	// Invert: b computes out[Lo+t] = x[Idx[t]], so x[j] lands at inv[j].
	inv := make([]int32, n)
	seen := make([]bool, n)
	cnt := 0
	for _, ops := range b.Workers {
		for _, op := range ops {
			p := op.(Permute)
			for t, s := range p.Idx {
				if seen[s] {
					return false
				}
				seen[s] = true
				inv[s] = int32(p.Lo + t)
				cnt++
			}
		}
	}
	if cnt != n {
		return false
	}
	rws := make(map[[2]int]Footprint)
	for w, ops := range a.Workers {
		for j, op := range ops {
			f := op.Footprint()
			s := f.Write.Spans[0]
			base, stride, ok := affine(s.Rows, s.Width, func(i, u int) int { return int(inv[s.Off+i*s.Stride+u]) })
			if !ok {
				return false
			}
			f.Write.Buf, f.Write.Spans[0].Off, f.Write.Spans[0].Stride = out, base, stride
			rws[[2]int{w, j}] = f
		}
	}
	for w, ops := range a.Workers {
		for j, op := range ops {
			a.Workers[w][j] = op.Moved(rws[[2]int{w, j}])
		}
	}
	clearRegion(b)
	return true
}

// foldScaleIntoCalls absorbs a diagonal stage into the fused input scale of
// the following codelet calls (D ⊕∥ D folded into stage-2 twiddle vectors).
func foldScaleIntoCalls(prog *Program, regions []*Region, i int) bool {
	a, b := regions[i], regions[i+1]
	if !every(a, is[Scale]) {
		return false
	}
	x := soleBuf(a, true)
	if x == -1 || !soleLink(prog, regions, i, x) {
		return false
	}
	src := soleBuf(a, false)
	if src == -1 || touches(b, src, true) {
		return false
	}
	// Consumers must all be plain codelet calls with a free Tw slot (a
	// panel's lanes would each need their own scale).
	if !every(b, func(op Op) bool { c, ok := op.(CodeletCall); return ok && c.Tw == nil && c.V <= 1 }) {
		return false
	}
	// Materialize the full diagonal; a must cover x completely, or b would
	// read positions whose value came from an earlier (stale) def of x.
	w := make([]complex128, prog.BufLen(x))
	covered := make([]bool, len(w))
	ccnt := 0
	for _, ops := range a.Workers {
		for _, op := range ops {
			s := op.(Scale)
			copy(w[s.Off:s.Off+len(s.W)], s.W)
			for k := s.Off; k < s.Off+len(s.W); k++ {
				if !covered[k] {
					covered[k] = true
					ccnt++
				}
			}
		}
	}
	if ccnt != len(w) {
		return false
	}
	for wi, ops := range b.Workers {
		for j, op := range ops {
			c := op.(CodeletCall)
			tw := make([]complex128, c.Tree.N)
			for i := range tw {
				tw[i] = w[c.SOff+i*c.SS]
			}
			c.Tw = tw
			c.Src = src
			b.Workers[wi][j] = c
		}
	}
	clearRegion(a)
	return true
}

// ---------------------------------------------------------------------------
// Helpers

func clearRegion(r *Region) {
	for w := range r.Workers {
		r.Workers[w] = nil
	}
}

func dropEmpty(regions []*Region) []*Region {
	out := regions[:0]
	for _, r := range regions {
		empty := true
		for _, ops := range r.Workers {
			if len(ops) > 0 {
				empty = false
				break
			}
		}
		if !empty {
			out = append(out, r)
		}
	}
	return out
}

func copyRegions(regions []*Region) []*Region {
	out := make([]*Region, len(regions))
	for i, r := range regions {
		nr := &Region{Name: r.Name, Workers: make([][]Op, len(r.Workers))}
		for w, ops := range r.Workers {
			nr.Workers[w] = append([]Op(nil), ops...)
		}
		out[i] = nr
	}
	return out
}

// compactTemps renumbers the temp buffers a program actually uses and drops
// the rest (folding typically eliminates one of the two ping-pong temps).
func compactTemps(p *Program) {
	used := make(map[Buf]bool)
	for _, r := range p.Regions() {
		for _, ops := range r.Workers {
			for _, op := range ops {
				f := op.Footprint()
				used[f.Write.Buf], used[f.Read.Buf] = true, true
			}
		}
	}
	remap := make(map[Buf]Buf)
	var temps []int
	for i := range p.Temps {
		old := TempBuf(i)
		if used[old] {
			remap[old] = TempBuf(len(temps))
			temps = append(temps, p.Temps[i])
		}
	}
	p.Temps = temps
	mapBuf := func(b Buf) Buf {
		if nb, ok := remap[b]; ok {
			return nb
		}
		return b
	}
	for _, r := range p.Regions() {
		for w, ops := range r.Workers {
			for j, op := range ops {
				f := op.Footprint()
				f.Write.Buf, f.Read.Buf = mapBuf(f.Write.Buf), mapBuf(f.Read.Buf)
				r.Workers[w][j] = op.Moved(f)
			}
		}
	}
}
