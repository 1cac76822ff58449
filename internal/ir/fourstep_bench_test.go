package ir

import (
	"math/rand"
	"testing"
)

// BenchmarkFourStepPass times each pass of the 2^22-point four-step
// program (n1 = 16384, n2 = 256, µ = 4) alone on one worker: "col-fft"
// gathers src columns, runs the DFT_256 lanes and writes dst rows;
// "row-fft" gathers dst columns, generates the twiddle rows, runs the
// DFT_16384 lanes and scatters back in place. dst is reset from src
// between iterations, outside the timer, so the in-place row pass never
// feeds on its own output.
func BenchmarkFourStepPass(b *testing.B) {
	if testing.Short() {
		b.Skip("allocates 128 MiB of buffers")
	}
	const n, n1 = 1 << 22, 1 << 14
	prog, err := LowerFourStep(n, n1, FourStepConfig{P: 1, Mu: 4})
	if err != nil {
		b.Fatal(err)
	}
	src := randVec(n, rand.New(rand.NewSource(1)))
	dst := make([]complex128, n)
	for _, r := range prog.Regions() {
		pass := &Program{Name: r.Name, N: n, P: 1, Mu: prog.Mu, Nodes: []Node{r}}
		e, err := NewExecutor(pass, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(r.Name, func(b *testing.B) {
			b.SetBytes(16 * n)
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				copy(dst, src)
				b.StartTimer()
				e.Transform(dst, src)
			}
		})
	}
}
