package benchfmt

import (
	"strings"
	"testing"
	"time"
)

// tinyCfg shrinks the quick grid to a sub-second test run: one trial,
// minimal trial time, few server requests. The grid shape (which metrics
// exist) is unchanged — that is what the test pins.
func tinyCfg() RunConfig {
	return RunConfig{
		Quick:          true,
		Trials:         1,
		MinTrialTime:   50 * time.Microsecond,
		Workers:        2,
		ServerRequests: 8,
	}
}

func TestRunQuickGridShape(t *testing.T) {
	if testing.Short() {
		t.Skip("runs real transforms; skipped in -short")
	}
	s, err := Run(tinyCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Snapshot must be schema-valid and round-trip through the codec.
	data, err := Encode(s)
	if err != nil {
		t.Fatalf("runner produced an invalid snapshot: %v", err)
	}
	if _, err := Decode(data); err != nil {
		t.Fatal(err)
	}
	if s.Grid != "quick" || s.GOMAXPROCS < 1 || s.GoVersion == "" || s.Host.Fingerprint == "" {
		t.Errorf("snapshot header incomplete: %+v", s)
	}
	// Every advertised metric class must be present with a positive value:
	// all seven families, cached-parallel throughput, both dispatch costs,
	// and the two server quantiles.
	wantPrefixes := []string{
		"mflops/dft/", "mflops/batch/", "mflops/dft2d/", "mflops/wht/",
		"mflops/real/", "mflops/dct/", "mflops/stft/",
		"throughput/cached-parallel/", "dispatch/pool", "dispatch/spawn",
		"fftd/p50", "fftd/p99",
	}
	for _, prefix := range wantPrefixes {
		found := false
		for _, m := range s.Metrics {
			if strings.HasPrefix(m.Key, prefix) {
				found = true
				if m.Value <= 0 {
					t.Errorf("%s: value %v, want > 0", m.Key, m.Value)
				}
			}
		}
		if !found {
			t.Errorf("grid missing metric %s*", prefix)
		}
	}
	// p99 can never undercut p50 on one histogram.
	k50, k99 := fftdKeys(fftdSize(true))
	p50, _ := s.Get(k50)
	p99, _ := s.Get(k99)
	if p99.Value < p50.Value {
		t.Errorf("fftd p99 %v < p50 %v", p99.Value, p50.Value)
	}
	// A snapshot self-diff is clean at threshold 0 — the analyzer and the
	// runner agree on keys.
	r := Diff(s, s, 0)
	if len(r.Regressions()) != 0 || len(r.Missing) != 0 || len(r.Added) != 0 {
		t.Errorf("self-diff not clean: %+v", r)
	}
}

// TestQuickAndFullGridsShareKeysOnlyForEqualShapes: Diff compares a quick
// snapshot against a full one on their shared keys, so a key both grids
// emit must name the same shape in both. The family probes' flop counts and
// the fftd request size stand in for the shape.
func TestQuickAndFullGridsShareKeysOnlyForEqualShapes(t *testing.T) {
	shapes := func(quick bool) map[string]float64 {
		probes, err := familyProbes(RunConfig{Quick: quick, Workers: 2}.withDefaults())
		if err != nil {
			t.Fatal(err)
		}
		m := make(map[string]float64, len(probes)+2)
		for _, p := range probes {
			m[p.key] = p.flops
			p.close()
		}
		n := fftdSize(quick)
		k50, k99 := fftdKeys(n)
		m[k50], m[k99] = float64(n), float64(n)
		return m
	}
	quick, full := shapes(true), shapes(false)
	shared := 0
	for k, q := range quick {
		f, ok := full[k]
		if !ok {
			continue
		}
		shared++
		if f != q {
			t.Errorf("%s: quick grid measures shape %v, full grid %v", k, q, f)
		}
	}
	if shared == 0 {
		t.Error("the grids share no keys: a quick-vs-full diff would compare nothing")
	}
}

func TestMeasureMinPositive(t *testing.T) {
	d := measureMin(func() { time.Sleep(20 * time.Microsecond) }, 2, 10*time.Microsecond)
	if d <= 0 {
		t.Errorf("measureMin = %v, want > 0", d)
	}
	// A fast fn gets calibrated repetitions, not a zero reading.
	x := 0
	if d := measureMin(func() { x++ }, 2, 100*time.Microsecond); d < 0 {
		t.Errorf("measureMin fast fn = %v", d)
	}
}
