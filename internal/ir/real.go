package ir

import (
	"fmt"

	"spiralfft/internal/smp"
	"spiralfft/internal/twiddle"
)

// Real-input DFTs. A real DFT_N (N = 2H) packs its samples into H complex
// points z[j] = x[2j] + i·x[2j+1] — a free reinterpretation of the float64
// buffer — and runs a complex DFT_H program. The untangling that turns the
// packed spectrum into the half spectrum X[0..H] (and, for the inverse, the
// retangling that rebuilds it) is one more region of the same program, so it
// runs on the program's workers: each worker takes a block of the bin pairs
// (k, H-k), k ∈ [0, H/2].

// RealForward lowers the real-input DFT_{2H} around half, a lowered complex
// DFT_H program: half's regions unchanged (src is the packed signal, H
// elements), a barrier, and an untangle region rewriting dst in place into
// the H+1 spectrum bins.
func RealForward(half *Program) (*Program, error) {
	if err := plainComplex(half); err != nil {
		return nil, err
	}
	h := half.N
	out := *half
	out.Name = "real-" + half.Name
	out.DstN = h + 1
	out.Nodes = append(append([]Node(nil), half.Nodes...), Barrier{}, untangleRegion(h, half.P, BufDst, BufDst, false))
	return &out, nil
}

// RealInverse lowers the inverse of RealForward around halfInv, a lowered
// complex inverse DFT_H program: a retangle region reading the H+1 spectrum
// bins from src into the H packed points of dst, a barrier, and halfInv's
// regions run in place on dst (its reads of src retargeted to dst; every
// lowering in this package permits dst == src). dst is the float64 output
// viewed as complex128.
func RealInverse(halfInv *Program) (*Program, error) {
	if err := plainComplex(halfInv); err != nil {
		return nil, err
	}
	h := halfInv.N
	out := *halfInv
	out.Name = "real-" + halfInv.Name
	out.SrcN = h + 1
	out.Nodes = []Node{untangleRegion(h, halfInv.P, BufDst, BufSrc, true), Barrier{}}
	for _, nd := range halfInv.Nodes {
		r, ok := nd.(*Region)
		if !ok {
			out.Nodes = append(out.Nodes, nd)
			continue
		}
		rr := &Region{Name: r.Name, Workers: make([][]Op, len(r.Workers))}
		for w, ops := range r.Workers {
			for _, op := range ops {
				op, err := srcToDst(op)
				if err != nil {
					return nil, err
				}
				rr.Workers[w] = append(rr.Workers[w], op)
			}
		}
		out.Nodes = append(out.Nodes, rr)
	}
	return &out, nil
}

// plainComplex rejects programs whose buffers are not all of length N.
func plainComplex(p *Program) error {
	if p.SrcN != 0 || p.DstN != 0 {
		return fmt.Errorf("ir: program %q is not a plain complex transform", p.Name)
	}
	return nil
}

// srcToDst retargets an op's reads of BufSrc to BufDst. Only the ops the DFT
// lowerings emit are known to run correctly in place.
func srcToDst(op Op) (Op, error) {
	switch op.(type) {
	case CodeletCall, CodeletGenCall:
	default:
		return nil, fmt.Errorf("ir: RealInverse cannot retarget op %s", op)
	}
	f := op.Footprint()
	if f.Read.Buf == BufSrc {
		f.Read.Buf = BufDst
	}
	return op.Moved(f), nil
}

// untangleRegion splits the H/2+1 bin pairs of an Untangle over p workers
// in contiguous blocks; worker 0's block holds pair 0 (bins 0 and H).
func untangleRegion(h, p int, dst, src Buf, inverse bool) *Region {
	w := make([]complex128, h/2+1)
	for k := range w {
		w[k] = twiddle.Omega(2*h, k)
	}
	name := "untangle"
	if inverse {
		name = "retangle"
	}
	reg := &Region{Name: name, Workers: make([][]Op, p)}
	for wk := 0; wk < p; wk++ {
		lo, hi := smp.BlockRange(len(w), p, wk)
		if hi > lo {
			reg.Workers[wk] = []Op{Untangle{Dst: dst, Src: src, H: h, Lo: lo, Hi: hi, W: w, Inverse: inverse}}
		}
	}
	return reg
}

// untangle runs an Untangle op's pairs [lo, hi) (see Untangle for the
// formulas). The halves are multiplies by 0.5 on the real and imaginary
// parts: a complex division by 2 would compile to a runtime call.
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

// retangle runs an inverse Untangle op's pairs [lo, hi).
func retangle(dst, src []complex128, h, lo, hi int, w []complex128) {
	for k := lo; k < hi; k++ {
		if k == 0 {
			a, b := real(src[0]), real(src[h])
			dst[0] = complex(0.5*(a+b), 0.5*(a-b))
			continue
		}
		xk, xc := src[k], src[h-k]
		feR, feI := 0.5*(real(xk)+real(xc)), 0.5*(imag(xk)-imag(xc))
		dR, dI := 0.5*(real(xk)-real(xc)), 0.5*(imag(xk)+imag(xc))
		wr, wi := real(w[k]), -imag(w[k])
		foR, foI := wr*dR-wi*dI, wr*dI+wi*dR
		dst[k] = complex(feR-foI, feI+foR)
		if k != h-k {
			dst[h-k] = complex(feR+foI, foR-feI)
		}
	}
}
