package exec

import (
	"testing"
)

func TestTreeAccessorsAndPowersOfTwo(t *testing.T) {
	tr := SplitTree(LeafTree(8), LeafTree(4))
	if tr.M() != 8 || tr.K() != 4 {
		t.Errorf("M/K = %d/%d", tr.M(), tr.K())
	}
	for _, c := range []struct {
		n    int
		want bool
	}{{1, true}, {2, true}, {1024, true}, {3, false}, {0, false}, {-4, false}, {6, false}} {
		if got := PowersOfTwo(c.n); got != c.want {
			t.Errorf("PowersOfTwo(%d) = %v", c.n, got)
		}
	}
}

func TestNewSeqRejectsInvalidTree(t *testing.T) {
	bad := &Tree{N: 8, Left: LeafTree(2), Right: LeafTree(2)}
	if _, err := NewSeq(bad); err == nil {
		t.Error("NewSeq accepted invalid tree")
	}
	defer func() {
		if recover() == nil {
			t.Fatal("MustNewSeq should panic")
		}
	}()
	MustNewSeq(bad)
}

// TestParallelTransformLengthPanics: a length mismatch panics in the
// sequential executor itself, so every schedule built on it (the parallel
// ones included) rejects mismatched buffers at the first sub-plan call.
func TestParallelTransformLengthPanics(t *testing.T) {
	s := MustNewSeq(RadixTree(64))
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.Transform(make([]complex128, 32), make([]complex128, 64), nil)
}
