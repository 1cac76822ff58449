package codelet

import (
	"testing"

	"spiralfft/internal/complexvec"
)

// FuzzCodeletVsNaive drives every registered kernel against the O(n²) oracle
// across fuzzer-chosen strides, offsets, and twiddle vectors, covering both
// the Func path (contiguous w) and the fused FuncW path (strided w) — the
// stride/offset corners the fixed-shape tests cannot enumerate. The output
// stride may be negative, as in the last stage of an inverse program.
func FuzzCodeletVsNaive(f *testing.F) {
	f.Add(uint64(1), 0, 1, 1, 0, 1, 0, 1, true)
	f.Add(uint64(7), 5, 2, 3, 1, 3, 2, 2, true)
	f.Add(uint64(42), 11, 3, 2, 4, 1, 3, 4, false)
	f.Add(uint64(9), 2, 4, 4, 2, 2, 1, 1, true)
	f.Add(uint64(3), 3, -2, 1, 0, 1, 0, 1, true)
	f.Fuzz(func(t *testing.T, seed uint64, sizeIdx, ds, ss, soff, doff, woff, ws int, useW bool) {
		sizes := Sizes()
		if sizeIdx < 0 {
			sizeIdx = -sizeIdx
		}
		n := sizes[sizeIdx%len(sizes)]
		clamp := func(v, lo, hi int) int {
			if v < lo {
				v = lo + (lo-v)%(hi-lo+1)
			}
			if v > hi {
				v = lo + (v-lo)%(hi-lo+1)
			}
			return v
		}
		ds, ss, ws = clamp(ds, -4, 4), clamp(ss, 1, 4), clamp(ws, 1, 4)
		if ds == 0 {
			ds = -1
		}
		doff, soff, woff = clamp(doff, 0, 5), clamp(soff, 0, 5), clamp(woff, 0, 5)
		k, ok := ForSize(n)
		if !ok {
			t.Fatalf("registry lost size %d", n)
		}
		nai := Naive(n)
		src := complexvec.Random(soff+n*ss, seed)
		var wc []complex128
		w := complexvec.Random(woff+n*ws, seed+1)
		if useW {
			wc = make([]complex128, n)
			for j := 0; j < n; j++ {
				wc[j] = w[woff+j*ws]
			}
		}
		// doff is the pad before the run; a negative stride runs down from
		// the run's far end.
		dlen := runLen(doff, ds, n)
		doff = runOff(doff, ds, n)
		want := make([]complex128, dlen)
		nai.Apply(want, doff, ds, src, soff, ss, wc)
		// Contiguous path: Kernel.Apply with w starting at index 0.
		got := make([]complex128, dlen)
		k.Apply(got, doff, ds, src, soff, ss, wc)
		if e := complexvec.RelError(got, want); e > 1e-9 {
			t.Errorf("%s.Apply (n=%d ds=%d ss=%d useW=%v): rel error %g", k.Name, n, ds, ss, useW, e)
		}
		// Fused path: Kernel.ApplyW with the strided vector.
		if k.ApplyW != nil && useW {
			for i := range got {
				got[i] = 0
			}
			k.ApplyW(got, doff, ds, src, soff, ss, w, woff, ws)
			if e := complexvec.RelError(got, want); e > 1e-9 {
				t.Errorf("%s.ApplyW (n=%d woff=%d ws=%d): rel error %g", k.Name, n, woff, ws, e)
			}
		}
	})
}
