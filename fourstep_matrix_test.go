package spiralfft_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"runtime"
	"testing"
	"unsafe"

	fft "spiralfft"
	"spiralfft/internal/complexvec"
)

// The four-step correctness matrix: every four-step configuration a caller
// can reach — complex and real, forward and inverse, p ∈ {1, 2, 4}, dst
// apart from src and dst == src — at small sizes with the tier forced on
// through Options.LargeNThreshold. Each output is hashed bit for bit; the
// hashes were recorded from the four-pass transpose schedule the two-pass
// panel schedule replaced, so a change in any sub-FFT, twiddle row or
// output position shows up as a changed hash, not as a tolerance question.

// fourStepMatrixHashes maps "family/dir/n/p/alias" to the output hash.
var fourStepMatrixHashes = map[string]string{
	"dft/fwd/4096/p1/alias=false":  "73d82afbf26e0403",
	"dft/fwd/4096/p1/alias=true":   "73d82afbf26e0403",
	"dft/fwd/4096/p2/alias=false":  "1868a316d1d45169",
	"dft/fwd/4096/p2/alias=true":   "1868a316d1d45169",
	"dft/fwd/4096/p4/alias=false":  "8cfc1f8717a09fcd",
	"dft/fwd/4096/p4/alias=true":   "8cfc1f8717a09fcd",
	"dft/fwd/3072/p1/alias=false":  "b8daec1c62b15ea3",
	"dft/fwd/3072/p1/alias=true":   "b8daec1c62b15ea3",
	"dft/fwd/3072/p2/alias=false":  "0f8dc711b7e54075",
	"dft/fwd/3072/p2/alias=true":   "0f8dc711b7e54075",
	"dft/fwd/3072/p4/alias=false":  "783a9e8d9abc93a0",
	"dft/fwd/3072/p4/alias=true":   "783a9e8d9abc93a0",
	"dft/fwd/3600/p1/alias=false":  "ff6e26db56c27b27",
	"dft/fwd/3600/p1/alias=true":   "ff6e26db56c27b27",
	"dft/fwd/3600/p2/alias=false":  "233bbbd3de1bf86d",
	"dft/fwd/3600/p2/alias=true":   "233bbbd3de1bf86d",
	"dft/fwd/3600/p4/alias=false":  "ae0c2e1a1f1e6284",
	"dft/fwd/3600/p4/alias=true":   "ae0c2e1a1f1e6284",
	"dft/inv/4096/p1/alias=false":  "5d8d6fe71bd8d290",
	"dft/inv/4096/p1/alias=true":   "5d8d6fe71bd8d290",
	"dft/inv/4096/p2/alias=false":  "d36d82af07baf860",
	"dft/inv/4096/p2/alias=true":   "d36d82af07baf860",
	"dft/inv/4096/p4/alias=false":  "6bd2464803f86e12",
	"dft/inv/4096/p4/alias=true":   "6bd2464803f86e12",
	"dft/inv/3072/p1/alias=false":  "27c3eec096f5bcbd",
	"dft/inv/3072/p1/alias=true":   "27c3eec096f5bcbd",
	"dft/inv/3072/p2/alias=false":  "10104b61103b7394",
	"dft/inv/3072/p2/alias=true":   "10104b61103b7394",
	"dft/inv/3072/p4/alias=false":  "ef3631b651c943eb",
	"dft/inv/3072/p4/alias=true":   "ef3631b651c943eb",
	"dft/inv/3600/p1/alias=false":  "82474bb76bf5c127",
	"dft/inv/3600/p1/alias=true":   "82474bb76bf5c127",
	"dft/inv/3600/p2/alias=false":  "276a4657f8c21c15",
	"dft/inv/3600/p2/alias=true":   "276a4657f8c21c15",
	"dft/inv/3600/p4/alias=false":  "6fd233783918c7cb",
	"dft/inv/3600/p4/alias=true":   "6fd233783918c7cb",
	"real/fwd/4096/p1/alias=false": "a880d33f8af27140",
	"real/fwd/4096/p1/alias=true":  "a880d33f8af27140",
	"real/fwd/4096/p2/alias=false": "8d322a2782c47813",
	"real/fwd/4096/p2/alias=true":  "8d322a2782c47813",
	"real/fwd/4096/p4/alias=false": "58f05811a2e932a6",
	"real/fwd/4096/p4/alias=true":  "58f05811a2e932a6",
	"real/fwd/3072/p1/alias=false": "953c231886259029",
	"real/fwd/3072/p1/alias=true":  "953c231886259029",
	"real/fwd/3072/p2/alias=false": "105cf296591e7a25",
	"real/fwd/3072/p2/alias=true":  "105cf296591e7a25",
	"real/fwd/3072/p4/alias=false": "e57eb8342155e29d",
	"real/fwd/3072/p4/alias=true":  "e57eb8342155e29d",
	"real/fwd/3600/p1/alias=false": "45fdff8315174cd7",
	"real/fwd/3600/p1/alias=true":  "45fdff8315174cd7",
	"real/fwd/3600/p2/alias=false": "f8603f0ed3ac563a",
	"real/fwd/3600/p2/alias=true":  "f8603f0ed3ac563a",
	"real/fwd/3600/p4/alias=false": "204cdb6e4bb06e45",
	"real/fwd/3600/p4/alias=true":  "204cdb6e4bb06e45",
	"real/inv/4096/p1/alias=false": "64254580cb9ca626",
	"real/inv/4096/p1/alias=true":  "64254580cb9ca626",
	"real/inv/4096/p2/alias=false": "1a0b8d76784b37ea",
	"real/inv/4096/p2/alias=true":  "1a0b8d76784b37ea",
	"real/inv/4096/p4/alias=false": "d1d4f6a53969346c",
	"real/inv/4096/p4/alias=true":  "d1d4f6a53969346c",
	"real/inv/3072/p1/alias=false": "47c025db514ce7b6",
	"real/inv/3072/p1/alias=true":  "47c025db514ce7b6",
	"real/inv/3072/p2/alias=false": "82a7bf211843c2b1",
	"real/inv/3072/p2/alias=true":  "82a7bf211843c2b1",
	"real/inv/3072/p4/alias=false": "b933cd91eafe9902",
	"real/inv/3072/p4/alias=true":  "b933cd91eafe9902",
	"real/inv/3600/p1/alias=false": "947687e0325e4850",
	"real/inv/3600/p1/alias=true":  "947687e0325e4850",
	"real/inv/3600/p2/alias=false": "f7544ca86b8319fa",
	"real/inv/3600/p2/alias=true":  "f7544ca86b8319fa",
	"real/inv/3600/p4/alias=false": "4ef4ba582a4fc15e",
	"real/inv/3600/p4/alias=true":  "4ef4ba582a4fc15e",
}

// hashComplex hashes the IEEE bits of v (real then imaginary part of each
// element, little endian) and returns the first 8 bytes in hex.
func hashComplex(v []complex128) string {
	h := sha256.New()
	var b [16]byte
	for _, c := range v {
		binary.LittleEndian.PutUint64(b[:8], math.Float64bits(real(c)))
		binary.LittleEndian.PutUint64(b[8:], math.Float64bits(imag(c)))
		h.Write(b[:])
	}
	return hex.EncodeToString(h.Sum(nil)[:8])
}

// floatsOf views a complex slice as its float64 pairs (sharing memory), so
// a real plan can be called with dst and src on the same buffer.
func floatsOf(v []complex128) []float64 {
	return unsafe.Slice((*float64)(unsafe.Pointer(unsafe.SliceData(v))), 2*len(v))
}

// fourStepMatrixRun runs one matrix cell and returns its output hash.
func fourStepMatrixRun(t *testing.T, family, dir string, n, p int, alias bool) string {
	t.Helper()
	half := n
	if family == "real" {
		half = n / 2
	}
	opt := &fft.Options{Workers: p, LargeNThreshold: half}
	x := complexvec.Random(n, uint64(n+p))
	switch family {
	case "dft":
		pl, err := fft.NewPlan(n, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer pl.Close()
		if !pl.IsFourStep() {
			t.Fatalf("dft n=%d p=%d did not take the four-step tier: %s", n, p, pl.Tree())
		}
		run := pl.Forward
		if dir == "inv" {
			run = pl.Inverse
		}
		dst := make([]complex128, n)
		if alias {
			dst = append(dst[:0], x...)
			x = dst
		}
		if err := run(dst, x); err != nil {
			t.Fatal(err)
		}
		return hashComplex(dst)
	default:
		pl, err := fft.NewRealPlan(n, opt)
		if err != nil {
			t.Fatal(err)
		}
		defer pl.Close()
		if dir == "fwd" {
			// buf holds the n/2+1 spectrum bins; the signal is its first n
			// floats when aliased.
			buf := make([]complex128, n/2+1)
			sig := make([]float64, n)
			if alias {
				sig = floatsOf(buf)[:n]
			}
			for i := range sig {
				sig[i] = real(x[i])
			}
			if err := pl.Forward(buf, sig); err != nil {
				t.Fatal(err)
			}
			return hashComplex(buf)
		}
		spec := append([]complex128(nil), x[:n/2+1]...)
		spec[0], spec[n/2] = complex(real(spec[0]), 0), complex(real(spec[n/2]), 0)
		out := make([]float64, n)
		if alias {
			out = floatsOf(spec)[:n]
		}
		if err := pl.Inverse(out, spec); err != nil {
			t.Fatal(err)
		}
		back := make([]complex128, n/2)
		copy(floatsOf(back), out)
		return hashComplex(back)
	}
}

func TestFourStepMatrixBitIdentical(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		// Other targets may fuse multiply-adds, which changes the bits.
		t.Skip("output hashes are recorded on amd64")
	}
	for _, family := range []string{"dft", "real"} {
		for _, dir := range []string{"fwd", "inv"} {
			for _, n := range []int{4096, 3072, 3600} {
				for _, p := range []int{1, 2, 4} {
					apart := ""
					for _, alias := range []bool{false, true} {
						key := fmt.Sprintf("%s/%s/%d/p%d/alias=%v", family, dir, n, p, alias)
						got := fourStepMatrixRun(t, family, dir, n, p, alias)
						if want, ok := fourStepMatrixHashes[key]; !ok {
							t.Errorf("%s: no recorded hash; output hash %q", key, got)
						} else if got != want {
							t.Errorf("%s: output hash %s, want %s", key, got, want)
						}
						if alias && got != apart {
							t.Errorf("%s: dst == src gives %s, dst apart from src %s", key, got, apart)
						}
						apart = got
					}
				}
			}
		}
	}
}
