package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"
	"time"

	"spiralfft/client"
)

// TestMain lets the test binary serve as its own set-up process, as the
// benchmark binary does.
func TestMain(m *testing.M) {
	if name := os.Getenv(setupEnv); name != "" {
		if err := setupChild(name); err != nil {
			fmt.Fprintln(os.Stderr, "set-up:", err)
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testWorkloads are the workloads a test runs: all of them, or in -short
// mode all but large-p2, whose 2^22-point plans and inputs take seconds.
func testWorkloads() []*workload {
	if !testing.Short() {
		return workloads
	}
	return slices.DeleteFunc(slices.Clone(workloads), func(w *workload) bool { return w.name == "large-p2" })
}

// fingerprint hashes a workload's inputs and the first ops of its schedule.
func fingerprint(w *workload, seed uint64) [32]byte {
	h := sha256.New()
	put := func(v any) { binary.Write(h, binary.LittleEndian, v) }
	for _, ins := range makeInputs(w, seed) {
		for _, in := range ins {
			put(in.c)
			put(in.r)
			put(in.want.vals)
			put(in.want.dense)
			put(in.want.real)
			for _, b := range in.want.bins {
				put(int64(b))
			}
		}
	}
	s := newScheduler(w, seed)
	for i := 0; i < 4096; i++ {
		st := s.step()
		put([2]int64{int64(st.kind), int64(st.input)})
		put(st.check)
	}
	var sum [32]byte
	h.Sum(sum[:0])
	return sum
}

func TestSeedDeterminesInputsAndSchedule(t *testing.T) {
	for _, w := range testWorkloads() {
		a, b, c := fingerprint(w, 7), fingerprint(w, 7), fingerprint(w, 8)
		if a != b {
			t.Errorf("%s: seed 7 gave two different input sets or schedules", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 7 and 8 gave the same inputs and schedule", w.name)
		}
	}
}

func TestScheduleChecksOneOpPerBlock(t *testing.T) {
	w, _ := lookupWorkload("families-p2")
	s := newScheduler(w, 3)
	counts := make([]int, len(w.kinds))
	for block := 0; block < 100; block++ {
		checked := 0
		for i := 0; i < checkEvery; i++ {
			st := s.step()
			counts[st.kind]++
			if st.check {
				checked++
			}
		}
		if checked != 1 {
			t.Fatalf("block %d has %d checked ops, want 1", block, checked)
		}
	}
	for k, c := range counts {
		if c != 100*checkEvery/len(w.kinds) {
			t.Errorf("kind %s ran %d times in %d ops, want equal counts", w.kinds[k], c, 100*checkEvery)
		}
	}
}

// TestReferencesMatchLibrary checks every op kind's exact reference against
// the library's output, and that one perturbed output bin is counted as a
// failed op.
func TestReferencesMatchLibrary(t *testing.T) {
	const n = 256
	kinds := []opKind{{famDFT, false, n}, {famDFT, true, n}, {famReal, false, n}, {famReal, true, n}, {famWHT, false, n}}
	sess, err := newLibSession(&workload{name: "test", kinds: kinds}, libOptions(2), nil)
	if err != nil {
		t.Fatal(err)
	}
	defer sess.close()
	ins := makeInputs(&workload{kinds: kinds, inputs: 1}, 11)
	for k, r := range sess.runners {
		in := &ins[k][0]
		if err := r.do(context.Background(), in); err != nil {
			t.Fatalf("%s: %v", r.kind, err)
		}
		var tl tally
		if e := r.relErr(in); !tl.add(nil, e) || e > 1e-12 {
			t.Errorf("%s: relative error %.3g, want below 1e-12", r.kind, e)
		}

		// Move one bin of the expected output, rather than of the leased
		// output the runner owns, by 1e-6 of the output's norm; the checker
		// sees the same difference.
		bad := *in
		switch {
		case in.want.dense != nil:
			bad.want.dense = slices.Clone(in.want.dense)
			bad.want.dense[3] += complex(1e-6*norm(in.want.dense), 0)
		case in.want.real != nil:
			bad.want.real = slices.Clone(in.want.real)
			var sq float64
			for _, v := range in.want.real {
				sq += v * v
			}
			bad.want.real[3] += 1e-6 * math.Sqrt(sq)
		default:
			bad.want.vals = slices.Clone(in.want.vals)
			bad.want.vals[0] += complex(1e-6*norm(in.want.vals), 0)
		}
		if tl.add(nil, r.relErr(&bad)) || tl.failed != 1 || tl.attempted != 2 {
			t.Errorf("%s: a perturbed bin was not counted as a failure (%+v)", r.kind, tl)
		}
	}
}

func norm(v []complex128) float64 {
	var sq float64
	for _, x := range v {
		sq += sqAbs(x)
	}
	return math.Sqrt(sq)
}

func TestOverloadCountsAsFailure(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Retry-After", "1")
		http.Error(w, "overloaded", http.StatusTooManyRequests)
	}))
	defer ts.Close()
	const n = 64
	buf := make([]complex128, n)
	err := client.New(ts.URL).DoComplex(context.Background(), client.Job{Family: famDFT, N: n}, buf, buf)
	var over *client.OverloadedError
	if !errors.As(err, &over) {
		t.Fatalf("a 429 gave %v, want an OverloadedError", err)
	}
	var tl tally
	if tl.add(err, -1) || tl.failed != 1 {
		t.Errorf("a 429 was not counted as a failure (%+v)", tl)
	}
}

func TestSelfTimes(t *testing.T) {
	us := func(v int) time.Duration { return time.Duration(v) * time.Microsecond }
	spans := []span{
		{name: "client", op: 1, start: us(0), end: us(100)},
		{name: "server.handler", parent: "client", op: 1, start: us(20), end: us(70)},
		// Two overlapping children and one reaching past its parent.
		{name: "client", op: 2, start: us(200), end: us(300)},
		{name: "server.handler", parent: "client", op: 2, start: us(210), end: us(240)},
		{name: "server.handler", parent: "client", op: 2, start: us(230), end: us(260)},
		{name: "server.handler", parent: "client", op: 2, start: us(290), end: us(320)},
		// No child, and a child of another op in its interval.
		{name: "client", op: 3, start: us(400), end: us(450)},
		{name: "server.handler", parent: "client", op: 4, start: us(410), end: us(420)},
	}
	got := selfTimes(spans, "client")
	want := []time.Duration{us(50), us(40), us(50)}
	if !slices.Equal(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	// statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
	for _, c := range []struct {
		v      []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		if q1, q3 := quartiles(c.v); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v, %v, want %v, %v", c.v, q1, q3, c.q1, c.q3)
		}
	}
}

// declared returns the metric names BENCHMARK.json declares under key.
func declared(t *testing.T, key string) []string {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec map[string]json.RawMessage
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var ms []struct{ Name string }
	if err := json.Unmarshal(spec[key], &ms); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, m := range ms {
		names = append(names, m.Name)
	}
	slices.Sort(names)
	return names
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmoke runs every workload for 200 ms, untraced and traced, and checks
// that no op fails and that the result line carries exactly the metrics
// BENCHMARK.json declares. The traced runs of the three library workloads
// need the full mode.
func TestSmoke(t *testing.T) {
	for _, w := range testWorkloads() {
		for _, trace := range []string{"0", "1"} {
			if trace == "1" && testing.Short() && w.name != "serve-http" {
				continue
			}
			var stdout, stderr bytes.Buffer
			code := run([]string{"--workload", w.name, "--seed", "5", "--seconds", "0.2", "--trace", trace}, &stdout, &stderr)
			if code != 0 {
				t.Fatalf("%s --trace %s: exit %d\n%s", w.name, trace, code, stderr.String())
			}
			lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
			var rep report
			if err := json.Unmarshal([]byte(lines[len(lines)-1]), &rep); err != nil {
				t.Fatalf("%s --trace %s: %v", w.name, trace, err)
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%s --trace %s: correct=%v, %d of %d ops failed", w.name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			var names []string
			for name := range rep.Metrics {
				if !metricName.MatchString(name) {
					t.Errorf("%s: metric name %q", w.name, name)
				}
				names = append(names, name)
			}
			slices.Sort(names)
			key := map[string]string{"0": "end_to_end", "1": "per_layer"}[trace]
			if want := declared(t, key); !slices.Equal(names, want) {
				t.Errorf("%s --trace %s printed %v, BENCHMARK.json's %s are %v", w.name, trace, names, key, want)
			}
		}
	}
}
