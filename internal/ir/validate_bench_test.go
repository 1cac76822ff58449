package ir

import "testing"

// Validate runs on every plan build (NewExecutor); these pin its cost on the
// large-N and in-cache programs the benchmark workloads build.
func BenchmarkValidate(b *testing.B) {
	large, err := LowerFourStep(1<<22, 16384, FourStepConfig{P: 2, Mu: 4})
	if err != nil {
		b.Fatal(err)
	}
	incache, err := LowerCT(1024, 32, CTConfig{P: 2, Mu: 4})
	if err != nil {
		b.Fatal(err)
	}
	for _, c := range []struct {
		name string
		prog *Program
	}{{"fourstep4M_p2", large}, {"ct1024_p2", incache}} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if err := c.prog.Validate(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
