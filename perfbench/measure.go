package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"slices"
	"strconv"
	"strings"
	"time"
)

// A phase is the record of one closed-loop stretch of a workload. Its
// latencies and its clock are scaled to the workload's reference speed (see
// ref.go); wall keeps the latencies as measured.
type phase struct {
	lat  [][]float64   // per kind: latency of each successful op, µs, scaled
	wall [][]float64   // per kind: the same latencies as measured
	dur  time.Duration // the phase's length, reference bursts excluded, scaled
	refs []float64     // every reference burst's unit time, ns
	tally
}

// runPhase runs sess closed loop from one caller for at least d, reference
// bursts excluded, taking ops from sched. With rec set it records a span
// around every stride-th op. capHint presizes the sample buffers so that
// the loop does not allocate.
func runPhase(sess *session, sched *scheduler, inputs [][]input, d time.Duration, rec *recorder, stride, capHint int) *phase {
	ph := &phase{lat: make([][]float64, len(sess.runners)), wall: make([][]float64, len(sess.runners))}
	for k := range ph.lat {
		c := int(float64(capHint)*sched.w.share(k)*1.2) + 16
		ph.lat[k], ph.wall[k] = make([]float64, 0, c), make([]float64, 0, c)
	}
	ref := sched.w.ref
	ph.refs = append(ph.refs, ref.burst())
	// scaleInterval ends the interval since the last burst, at now on the
	// wall clock, with a new burst, and scales the interval's latencies and
	// length by the mean of the two bursts around it.
	var intervalStart time.Duration
	scaleInterval := func(now time.Duration) {
		r := ref.burst()
		scale := ref.nominal / ((ph.refs[len(ph.refs)-1] + r) / 2)
		ph.refs = append(ph.refs, r)
		for k, wall := range ph.wall {
			for _, v := range wall[len(ph.lat[k]):] {
				ph.lat[k] = append(ph.lat[k], v*scale)
			}
		}
		ph.dur += time.Duration(float64(now-intervalStart) * scale)
		intervalStart = now
	}
	bg := context.Background()
	var paused time.Duration
	start := time.Now()
	lastBurst := start
	for {
		st := sched.step()
		op := int64(sched.ops)
		r := &sess.runners[st.kind]
		in := &inputs[st.kind][st.input]
		ctx, traced := bg, rec != nil && ph.attempted%stride == 0
		if traced {
			ctx = context.WithValue(bg, opIDKey{}, op)
		}
		t0 := time.Now()
		err := r.do(ctx, in)
		t1 := time.Now()
		if traced {
			rec.record(sess.layer, r.kind.String(), "", op, t0, t1)
		}
		rel := -1.0
		if st.check && err == nil {
			rel = r.relErr(in)
		}
		if ph.add(err, rel) {
			ph.wall[st.kind] = append(ph.wall[st.kind], float64(t1.Sub(t0))/1e3)
		}
		now := t1.Sub(start) - paused
		if now < d && t1.Sub(lastBurst) < refEvery {
			continue
		}
		b0 := time.Now()
		scaleInterval(now)
		lastBurst = time.Now()
		paused += lastBurst.Sub(b0)
		if now >= d {
			return ph
		}
	}
}

// rate is the phase's successful ops per second on the scaled clock.
func (ph *phase) rate() float64 {
	n := 0
	for _, l := range ph.lat {
		n += len(l)
	}
	return float64(n) / ph.dur.Seconds()
}

// capFor sizes sample buffers for a phase of length d from a shorter one.
func (ph *phase) capFor(d time.Duration) int { return int(ph.rate()*d.Seconds()*1.25) + 64 }

// latency returns Σ_k count_k·q_k / Σ_k count_k, where q_k is the
// q-quantile latency of kind k (µs): the mean over ops of their own kind's
// quantile. For one kind it is that quantile. For a mix of kinds of
// different cost it does not land in the gap between them, as a quantile of
// the pooled samples would.
func (ph *phase) latency(q float64) float64 { return weightedQuantile(ph.lat, q) }

// wallLatency is latency over the latencies as measured.
func (ph *phase) wallLatency(q float64) float64 { return weightedQuantile(ph.wall, q) }

// mflops is the paper's pseudo-Mflop/s over the phase: the kinds' nominal
// flops summed over ops, divided by each kind's median time times its count.
func (ph *phase) mflops(kinds []opKind) float64 {
	var flops, us float64
	for k, lat := range ph.lat {
		if len(lat) == 0 {
			continue
		}
		slices.Sort(lat)
		flops += kinds[k].flops() * float64(len(lat))
		us += quantile(lat, 0.5) * float64(len(lat))
	}
	return flops / us
}

// warmupFor is the warm-up before a measured window of length d.
func warmupFor(d time.Duration) time.Duration { return min(3*time.Second, d/5) }

// endToEnd runs workload w once, untraced, and returns its end-to-end
// metrics.
func endToEnd(w *workload, seed uint64, window time.Duration, log io.Writer) ([]metric, tally, error) {
	setup, rss, err := setupCost(w, log)
	if err != nil {
		return nil, tally{}, err
	}
	inputs := makeInputs(w, seed)
	sess, err := newSession(w, nil)
	if err != nil {
		return nil, tally{}, err
	}
	defer sess.close()
	logPlans(log, sess)
	sched := newScheduler(w, seed)
	warm := runPhase(sess, sched, inputs, warmupFor(window), nil, 0, 0)
	ph := runPhase(sess, sched, inputs, window, nil, 0, warm.capFor(window))
	ph.merge(warm.tally)
	logPhase(log, w, ph)
	// Every time below is scaled to the reference speed (ref.go).
	return []metric{
		{"mflops", "pseudo-Mflop/s", ph.mflops(w.kinds)},
		{"ops_per_s", "ops/s", ph.rate()},
		{"latency_p50_us", "us", ph.latency(0.5)},
		{"latency_tail_us", "us", ph.latency(w.tail)},
		{"setup_s", "s", setup},
		{"rss_anon_mib", "MiB", rss},
	}, ph.tally, nil
}

func logPlans(log io.Writer, sess *session) {
	if sess.plans == nil {
		fmt.Fprintln(log, "plans: built by the daemon with its defaults (GOMAXPROCS workers, fixed planner)")
		return
	}
	for _, t := range sess.plans.trees() {
		fmt.Fprintln(log, "plan", t)
	}
}

func logPhase(log io.Writer, w *workload, ph *phase) {
	for k, lat := range ph.lat {
		slices.Sort(lat)
		slices.Sort(ph.wall[k])
		fmt.Fprintf(log, "%-9s n=%-8d ops=%-8d p50=%.2fµs p%g=%.2fµs scaled, wall p50=%.2fµs p%g=%.2fµs\n",
			w.kinds[k], w.kinds[k].n, len(lat), quantile(lat, 0.5), w.tail*100, quantile(lat, w.tail),
			quantile(ph.wall[k], 0.5), w.tail*100, quantile(ph.wall[k], w.tail))
	}
	fmt.Fprintf(log, "reference: median %.0f ns, nominal %.0f ns, %d bursts\n", median(ph.refs), w.ref.nominal, len(ph.refs))
	fmt.Fprintf(log, "attempted=%d failed=%d max_rel_err=%.3g\n", ph.attempted, ph.failed, ph.maxErr)
}

// setupEnv names the workload a set-up process builds. The benchmark
// re-executes itself with it set to time set-up in fresh processes, so each
// sample pays the cold costs (twiddle tables, plan cache, first requests) a
// user's process pays.
const setupEnv = "PERFBENCH_SETUP"

// A run times at least minSetupReps set-up processes, then more until
// setupBudget has passed, at most maxSetupReps, and reports the medians. The
// small workloads' set-up is mostly a few noisy milliseconds of process
// start, so they take many samples; large-p2's plan build takes most of a
// second, so it takes few.
const (
	minSetupReps, maxSetupReps = 5, 31
	setupBudget                = 2 * time.Second
)

// setupCost times, in fresh processes, the span from process start to the
// first op being ready to run, scaled by w's reference around each process
// as the measured phases are, and reads each process's anonymous resident
// memory once it has also run every op kind. It returns the medians: the
// set-up time in seconds and the workload's memory footprint in MiB. The
// footprint leaves out the benchmark's own per-op samples and the mapped
// binary, whose resident share follows the page cache, not the program.
func setupCost(w *workload, log io.Writer) (secs, rssMiB float64, err error) {
	exe, err := os.Executable()
	if err != nil {
		return 0, 0, err
	}
	var times, wall, rss []float64
	ref := w.ref.burst()
	begin := time.Now()
	for len(times) < minSetupReps || len(times) < maxSetupReps && time.Since(begin) < setupBudget {
		cmd := exec.Command(exe)
		cmd.Env = append(os.Environ(), setupEnv+"="+w.name)
		cmd.Stderr = os.Stderr
		out, err := cmd.StdoutPipe()
		if err != nil {
			return 0, 0, err
		}
		start := time.Now()
		if err := cmd.Start(); err != nil {
			return 0, 0, err
		}
		rd := bufio.NewReader(out)
		ready, rerr := rd.ReadString('\n')
		d := time.Since(start)
		var kib float64
		if rerr == nil && ready == "ready\n" {
			_, rerr = fmt.Fscanf(rd, "rss_anon_kib %g\n", &kib)
		}
		io.Copy(io.Discard, rd)
		if err := cmd.Wait(); err != nil {
			return 0, 0, fmt.Errorf("set-up process: %w", err)
		}
		if rerr != nil || ready != "ready\n" {
			return 0, 0, fmt.Errorf("set-up process printed %q (%v)", ready, rerr)
		}
		next := w.ref.burst()
		wall = append(wall, d.Seconds())
		times = append(times, d.Seconds()*w.ref.nominal/((ref+next)/2))
		ref = next
		rss = append(rss, kib/1024)
	}
	secs, rssMiB = median(times), median(rss)
	fmt.Fprintf(log, "set-up: %d processes, median %.4gs scaled, %.4gs wall, anonymous RSS %.1f MiB\n", len(times), secs, median(wall), rssMiB)
	return secs, rssMiB, nil
}

// setupChild is the set-up process: it builds the workload's session,
// reports ready, runs each op kind once on a zero operand, and reports its
// anonymous resident memory. The daemon plans lazily, so its set-up ends
// with one cold request per shape; library plans are complete when built.
func setupChild(name string) error {
	w, err := lookupWorkload(name)
	if err != nil {
		return err
	}
	sess, err := newSession(w, nil)
	if err != nil {
		return err
	}
	defer sess.close()
	runAll := func() error {
		for _, r := range sess.runners {
			in := zeroInput(r.kind)
			if err := r.do(context.Background(), &in); err != nil {
				return err
			}
		}
		return nil
	}
	if w.serve {
		if err := runAll(); err != nil {
			return err
		}
	}
	if _, err := fmt.Println("ready"); err != nil {
		return err
	}
	if !w.serve {
		if err := runAll(); err != nil {
			return err
		}
	}
	kib, err := rssAnonKiB()
	if err != nil {
		return err
	}
	_, err = fmt.Printf("rss_anon_kib %d\n", kib)
	return err
}

// rssAnonKiB reads the process's anonymous resident memory from
// /proc/self/status (Linux).
func rssAnonKiB() (int, error) {
	data, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if v, ok := strings.CutPrefix(line, "RssAnon:"); ok {
			return strconv.Atoi(strings.TrimSuffix(strings.TrimSpace(v), " kB"))
		}
	}
	return 0, errors.New("no RssAnon in /proc/self/status")
}
