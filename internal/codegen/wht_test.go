package codegen

import (
	"strings"
	"testing"
)

// A pass body loads each leg once, runs log2 r radix-2 stages (r/2
// butterflies of an add and a sub each), scales each output in the scaled
// flavor, stores each leg once, and loads every leg before the first store,
// so a kernel is safe in place.
func TestWHTProgram(t *testing.T) {
	for _, r := range WHTRadices {
		for _, scaled := range []bool{false, true} {
			count := map[opKind]int{}
			stored := false
			for _, op := range whtProgram(r, scaled) {
				count[op.kind]++
				if op.kind == opStore {
					stored = true
				}
				if op.kind == opLoad && stored {
					t.Errorf("%s: a load follows a store", whtName(r, scaled))
				}
			}
			stages := 0
			for h := 1; h < r; h *= 2 {
				stages++
			}
			scales := 0
			if scaled {
				scales = r
			}
			if count[opLoad] != r || count[opStore] != r || count[opAdd] != stages*r/2 || count[opSub] != stages*r/2 || count[opScale] != scales {
				t.Errorf("%s: ops %v", whtName(r, scaled), count)
			}
		}
	}
}

// The pass kernels' counts describe their text: r loads and r stores per
// body, 2r in the AVX form's w = 1 body, which moves each block's lane on
// its own, then r each in its pair loop and odd-w tail; the leg stride's
// multiples and lane bases built by LEAQ once before the loops; no spill
// at any radix: the eight legs of radix 8, a temporary and (s, s) fit the
// sixteen registers.
func TestWHTAsmCounts(t *testing.T) {
	for _, r := range WHTRadices {
		for _, scaled := range []bool{false, true} {
			for _, avx := range []bool{false, true} {
				text, st := whtAsmKernel(r, scaled, avx)
				moves, lanes := r, 1
				if avx {
					moves, lanes = 4*r, 2
				}
				if st.Loads != moves || st.Stores != moves {
					t.Errorf("%s: %d loads and %d stores, want %d each", st.Name, st.Loads, st.Stores, moves)
				}
				checkAsmCounts(t, text, st, lanes)
				if st.Spills != 0 || st.Frame != 0 {
					t.Errorf("%s spills %d values (%d-byte frame)", st.Name, st.Spills, st.Frame)
				}
				if before, _, _ := strings.Cut(text, "block:"); strings.Count(before, "LEAQ") != st.Addrs {
					t.Errorf("%s: %d LEAQs, not all before the loops", st.Name, st.Addrs)
				}
			}
		}
	}
}
