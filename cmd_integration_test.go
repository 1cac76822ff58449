package spiralfft_test

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandLineTools smoke-runs every cmd/ binary end to end with fast
// parameters and checks for the expected output markers. Skipped in -short
// mode (each run compiles a binary).
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd integration skipped in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable")
	}
	cases := []struct {
		name string
		args []string
		want []string
	}{
		{
			name: "spiralgen-formula",
			args: []string{"run", "./cmd/spiralgen", "-n", "256", "-p", "2", "-mu", "4", "-formula"},
			want: []string{"formula (14)", "⊗∥", "rule(7)", "rule(11)"},
		},
		{
			name: "spiralgen-code",
			args: []string{"run", "./cmd/spiralgen", "-n", "64", "-p", "1"},
			want: []string{"Code generated", "func DFT64"},
		},
		{
			name: "benchfig3-model",
			args: []string{"run", "./cmd/benchfig3", "-platform", "coreduo", "-min", "6", "-max", "10", "-crossover"},
			want: []string{"Core Duo", "Spiral pthreads", "parallel speedup from"},
		},
		{
			name: "benchfig3-chart",
			args: []string{"run", "./cmd/benchfig3", "-platform", "xeonmp", "-min", "6", "-max", "9", "-format", "chart"},
			want: []string{"legend", "Xeon MP"},
		},
		{
			name: "benchfig3-host-csv",
			args: []string{"run", "./cmd/benchfig3", "-platform", "host", "-min", "6", "-max", "8", "-format", "csv", "-mintime", "100us"},
			want: []string{"log2n,Spiral_pthreads", "6,"},
		},
		{
			name: "tune-dp",
			args: []string{"run", "./cmd/tune", "-n", "256", "-strategy", "dp", "-p", "1", "-mintime", "100us"},
			want: []string{"sequential tree", "pseudo-Mflop/s"},
		},
		{
			name: "tune-evolve",
			args: []string{"run", "./cmd/tune", "-n", "128", "-strategy", "evolve", "-mintime", "50us"},
			want: []string{"strategy       : evolve", "sequential tree"},
		},
		{
			// -plan-budget bounds every search: spent at once, nothing is timed.
			name: "tune-plan-budget",
			args: []string{"run", "./cmd/tune", "-n", "1024", "-p", "2", "-plan-budget", "1ns"},
			want: []string{"sequential tree", ", 0 measured,"},
		},
		{
			name: "verify-selftest",
			args: []string{"run", "./cmd/verify", "-p", "2"},
			want: []string{"all checks passed", "formula (14) derivation"},
		},
		{
			name: "calibrate",
			args: []string{"run", "./cmd/calibrate"},
			want: []string{"pool fork-join", "spawn fork-join", "paper-platform model constants"},
		},
		{
			name: "spiralgen-wht-formula",
			args: []string{"run", "./cmd/spiralgen", "-family", "wht", "-n", "256", "-p", "2", "-mu", "4", "-formula"},
			want: []string{"WHT_", "⊗∥", "⊗̄"},
		},
		{
			name: "spiralgen-2d-formula",
			args: []string{"run", "./cmd/spiralgen", "-family", "2d", "-n", "64", "-cols", "64", "-p", "2", "-formula"},
			want: []string{"DFT_64", "⊗∥", "row-column"},
		},
		{
			name: "dft-demo",
			args: []string{"run", "./cmd/dft", "-n", "256", "-workers", "2"},
			want: []string{"top 5 bins", "plan: n=256"},
		},
	}
	for _, c := range cases {
		c := c
		t.Run(c.name, func(t *testing.T) {
			out, err := exec.Command("go", c.args...).CombinedOutput()
			if err != nil {
				t.Fatalf("%v: %v\n%s", c.args, err, out)
			}
			for _, w := range c.want {
				if !strings.Contains(string(out), w) {
					t.Errorf("output missing %q:\n%s", w, out)
				}
			}
		})
	}
}

// TestTuneRejectsPlannerFlag: tune chooses its search with -strategy, so a
// -planner other than the default is an error, not silently ignored.
func TestTuneRejectsPlannerFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd integration skipped in -short mode")
	}
	out, err := exec.Command("go", "run", "./cmd/tune", "-n", "64", "-planner", "measure").CombinedOutput()
	if err == nil || !strings.Contains(string(out), "exit status 2") || !strings.Contains(string(out), "-strategy") {
		t.Errorf("tune -planner measure: err %v, output:\n%s", err, out)
	}
}

// TestDFTToolFileRoundtrip drives cmd/dft through its file input path:
// forward then inverse must reproduce the input samples.
func TestDFTToolFileRoundtrip(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd integration skipped in -short mode")
	}
	dir := t.TempDir()
	in := filepath.Join(dir, "in.txt")
	var b strings.Builder
	for i := 0; i < 16; i++ {
		b.WriteString("1 0\n")
	}
	if err := os.WriteFile(in, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	fwd, err := exec.Command("go", "run", "./cmd/dft", "-in", in).Output()
	if err != nil {
		t.Fatal(err)
	}
	// DFT of the all-ones vector: bin 0 = 16, others 0.
	lines := strings.Split(strings.TrimSpace(string(fwd)), "\n")
	if len(lines) != 16 || !strings.HasPrefix(lines[0], "16 ") {
		t.Fatalf("forward output unexpected: %q...", lines[0])
	}
	mid := filepath.Join(dir, "mid.txt")
	if err := os.WriteFile(mid, fwd, 0o644); err != nil {
		t.Fatal(err)
	}
	back, err := exec.Command("go", "run", "./cmd/dft", "-in", mid, "-inverse").Output()
	if err != nil {
		t.Fatal(err)
	}
	for i, line := range strings.Split(strings.TrimSpace(string(back)), "\n") {
		if !strings.HasPrefix(line, "1 ") && !strings.HasPrefix(line, "0.9999") {
			t.Fatalf("inverse line %d = %q, want ≈ 1 0", i, line)
		}
	}
}

// TestBenchsnapRecordAndDiff drives the perf-trajectory tool end to end:
// record a quick snapshot, self-diff it (exit 0), then inject a regression
// into a copy and check the analyzer rejects it (exit 1).
func TestBenchsnapRecordAndDiff(t *testing.T) {
	if testing.Short() {
		t.Skip("cmd integration skipped in -short mode")
	}
	if _, err := exec.LookPath("go"); err != nil {
		t.Skip("go toolchain unavailable")
	}
	dir := t.TempDir()
	snap := filepath.Join(dir, "snap.json")
	out, err := exec.Command("go", "run", "./cmd/benchsnap", "-quick", "-trials", "1", "-o", snap).CombinedOutput()
	if err != nil {
		t.Fatalf("record: %v\n%s", err, out)
	}
	data, err := os.ReadFile(snap)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{`"schema": 1`, `"grid": "quick"`, "mflops/stft", "fftd/p99"} {
		if !strings.Contains(string(data), want) {
			t.Errorf("snapshot missing %q", want)
		}
	}

	out, err = exec.Command("go", "run", "./cmd/benchsnap", "-diff", snap, snap).CombinedOutput()
	if err != nil {
		t.Fatalf("self-diff should exit 0: %v\n%s", err, out)
	}
	if !strings.Contains(string(out), "no regressions") {
		t.Errorf("self-diff table unexpected:\n%s", out)
	}

	// Inject a 10× regression into the cached-parallel throughput metric.
	bad := filepath.Join(dir, "bad.json")
	mangled := strings.Replace(string(data), `"key": "throughput/cached-parallel/n=1024",
      "unit": "transforms/s",
      "value": `, `"key": "throughput/cached-parallel/n=1024",
      "unit": "transforms/s",
      "value": 0.1e-1, "_orig": `, 1)
	if mangled == string(data) {
		t.Fatal("failed to inject regression (snapshot layout changed?)")
	}
	if err := os.WriteFile(bad, []byte(mangled), 0o644); err != nil {
		t.Fatal(err)
	}
	out, err = exec.Command("go", "run", "./cmd/benchsnap", "-diff", "-threshold", "0.5", snap, bad).CombinedOutput()
	if err == nil {
		t.Fatalf("diff with injected regression should exit non-zero:\n%s", out)
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() == 2 {
		t.Fatalf("diff exit = %v (want 1, not usage error 2):\n%s", err, out)
	}
	if !strings.Contains(string(out), "REGRESSION") {
		t.Errorf("diff table missing REGRESSION mark:\n%s", out)
	}
}
