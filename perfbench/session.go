package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"runtime"
	"strconv"
	"time"

	"spiralfft"
	"spiralfft/client"
	"spiralfft/internal/server"
)

// libOptions are the library workloads' plan options: pooled workers and the
// model-guided planner, which is deterministic. A measuring planner can flip
// a plan between parallel and sequential from run to run, which would move
// the numbers by itself.
func libOptions(workers int) *spiralfft.Options {
	return &spiralfft.Options{Workers: workers, Backend: spiralfft.BackendPool, Planner: spiralfft.PlannerEstimate}
}

// daemonOptions are the plan options fftd's defaults give its plans:
// GOMAXPROCS workers and the fixed planner.
func daemonOptions() *spiralfft.Options {
	return &spiralfft.Options{Workers: runtime.GOMAXPROCS(0)}
}

// libPlans holds one plan per (family, n) a workload's kinds use; the
// forward and inverse kinds of one size share a plan.
type libPlans struct {
	dft  map[int]*spiralfft.Plan
	real map[int]*spiralfft.RealPlan
	wht  map[int]*spiralfft.WHTPlan
}

// buildPlans plans every kind of w with options o, recording each New*Plan
// call as a plan.new span.
func buildPlans(w *workload, o *spiralfft.Options, rec *recorder) (*libPlans, error) {
	p := &libPlans{dft: map[int]*spiralfft.Plan{}, real: map[int]*spiralfft.RealPlan{}, wht: map[int]*spiralfft.WHTPlan{}}
	for _, k := range w.kinds {
		if p.has(k) {
			continue
		}
		start := time.Now()
		var err error
		switch k.family {
		case famDFT:
			p.dft[k.n], err = spiralfft.NewPlan(k.n, o)
		case famReal:
			p.real[k.n], err = spiralfft.NewRealPlan(k.n, o)
		case famWHT:
			p.wht[k.n], err = spiralfft.NewWHTPlan(k.n, o)
		}
		if err != nil {
			p.close()
			return nil, fmt.Errorf("plan %s n=%d: %w", k, k.n, err)
		}
		rec.record("plan.new", k.family, "", -1, start, time.Now())
	}
	return p, nil
}

func (p *libPlans) has(k opKind) bool {
	switch k.family {
	case famDFT:
		return p.dft[k.n] != nil
	case famReal:
		return p.real[k.n] != nil
	}
	return p.wht[k.n] != nil
}

func (p *libPlans) close() {
	for _, pl := range p.dft {
		if pl != nil {
			pl.Close()
		}
	}
	for _, pl := range p.real {
		if pl != nil {
			pl.Close()
		}
	}
	for _, pl := range p.wht {
		if pl != nil {
			pl.Close()
		}
	}
}

// barrierWait sums the plans' inter-stage barrier wait (timed only while
// library metrics are enabled).
func (p *libPlans) barrierWait() time.Duration {
	var d time.Duration
	for _, pl := range p.dft {
		d += pl.Snapshot().BarrierWait
	}
	for _, pl := range p.real {
		d += pl.Snapshot().BarrierWait
	}
	for _, pl := range p.wht {
		d += pl.Snapshot().BarrierWait
	}
	return d
}

// trees describes every plan's schedule, so a changed plan shows in the log.
func (p *libPlans) trees() []string {
	var out []string
	for n, pl := range p.dft {
		out = append(out, fmt.Sprintf("dft n=%d: %s", n, pl.Tree()))
	}
	for n, pl := range p.real {
		out = append(out, fmt.Sprintf("real n=%d: parallel=%v", n, pl.IsParallel()))
	}
	for n, pl := range p.wht {
		out = append(out, fmt.Sprintf("wht n=%d: %s", n, pl.Formula()))
	}
	return out
}

// A runner executes one op kind: do runs it on an input, and relErr
// measures the output of the last do against that input's reference.
type runner struct {
	kind   opKind
	do     func(ctx context.Context, in *input) error
	relErr func(in *input) float64
}

// A session is one set-up instance of a workload: its plans or its server,
// with one runner per op kind.
type session struct {
	runners []runner
	// layer names the span of one op's call: "api" for a call into the
	// root package, "client" for a request through the client package.
	layer string
	plans *libPlans // library sessions only
	close func()
}

func newSession(w *workload, rec *recorder) (*session, error) {
	if w.serve {
		return newHTTPSession(w, rec)
	}
	return newLibSession(w, libOptions(2), rec)
}

// newLibSession plans w's kinds with options o and leases one buffer pair
// per kind, so the measured loop allocates nothing.
func newLibSession(w *workload, o *spiralfft.Options, rec *recorder) (*session, error) {
	plans, err := buildPlans(w, o, rec)
	if err != nil {
		return nil, err
	}
	var leases []interface{ Release() }
	s := &session{layer: "api", plans: plans, close: func() {
		for _, l := range leases {
			l.Release()
		}
		plans.close()
	}}
	for _, k := range w.kinds {
		r := runner{kind: k}
		switch k.family {
		case famDFT:
			p := plans.dft[k.n]
			l := p.Buffers()
			leases = append(leases, l)
			r.do = func(_ context.Context, in *input) error { return p.Forward(l.Out, in.c) }
			if k.inverse {
				r.do = func(_ context.Context, in *input) error { return p.Inverse(l.Out, in.c) }
			}
			r.relErr = func(in *input) float64 { return in.want.relErr(l.Out) }
		case famReal:
			p := plans.real[k.n]
			l := p.Buffers()
			leases = append(leases, l)
			r.do = func(_ context.Context, in *input) error { return p.Forward(l.Out, in.r) }
			r.relErr = func(in *input) float64 { return in.want.relErr(l.Out) }
			if k.inverse {
				r.do = func(_ context.Context, in *input) error { return p.Inverse(l.In, in.c) }
				r.relErr = func(in *input) float64 { return in.want.relErrReal(l.In) }
			}
		case famWHT:
			p := plans.wht[k.n]
			l := p.Buffers()
			leases = append(leases, l)
			r.do = func(_ context.Context, in *input) error { return p.Forward(l.Out, in.c) }
			r.relErr = func(in *input) float64 { return in.want.relErr(l.Out) }
		}
		s.runners = append(s.runners, r)
	}
	return s, nil
}

// opHeader carries a traced request's op id from the client to the
// benchmark's middleware, which links the server.handler span to the
// request's client span.
const opHeader = "X-Perfbench-Op"

type opIDKey struct{}

// opHeaderTransport tags each request whose context carries an op id.
type opHeaderTransport struct{ base http.RoundTripper }

func (t opHeaderTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	op, ok := r.Context().Value(opIDKey{}).(int64)
	if !ok {
		return t.base.RoundTrip(r)
	}
	r = r.Clone(r.Context())
	r.Header.Set(opHeader, strconv.FormatInt(op, 10))
	return t.base.RoundTrip(r)
}

// handlerSpans wraps the daemon's handler and records a server.handler span
// for every tagged request.
func handlerSpans(h http.Handler, rec *recorder) http.Handler {
	if rec == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		op, err := strconv.ParseInt(r.Header.Get(opHeader), 10, 64)
		if err != nil {
			h.ServeHTTP(w, r)
			return
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		rec.record("server.handler", "", "client", op, start, time.Now())
	})
}

// newHTTPSession starts the daemon's server core with fftd's defaults
// behind net/http on a loopback ephemeral port, and one client with one
// keep-alive connection to it.
func newHTTPSession(w *workload, rec *recorder) (*session, error) {
	srv := server.New(server.Config{})
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	hs := &http.Server{Handler: handlerSpans(srv.Handler(), rec), ReadHeaderTimeout: 10 * time.Second}
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	tr := &http.Transport{MaxIdleConnsPerHost: 1}
	cl := client.New("http://" + ln.Addr().String())
	cl.HTTPClient = &http.Client{Transport: opHeaderTransport{tr}}
	s := &session{layer: "client", close: func() {
		tr.CloseIdleConnections()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := hs.Shutdown(ctx); err != nil {
			hs.Close()
		}
		<-served
		srv.Close()
	}}
	for _, k := range w.kinds {
		job := client.Job{Family: client.Family(k.family), Inverse: k.inverse, N: k.n}
		r := runner{kind: k}
		switch {
		case k.family == famDFT:
			out := make([]complex128, k.n)
			r.do = func(ctx context.Context, in *input) error { return cl.DoComplex(ctx, job, out, in.c) }
			r.relErr = func(in *input) float64 { return in.want.relErr(out) }
		case k.family == famReal && !k.inverse:
			out := make([]float64, 2*(k.n/2+1))
			spec := make([]complex128, k.n/2+1)
			r.do = func(ctx context.Context, in *input) error { return cl.Do(ctx, job, out, in.r) }
			r.relErr = func(in *input) float64 {
				for i := range spec {
					spec[i] = complex(out[2*i], out[2*i+1])
				}
				return in.want.relErr(spec)
			}
		default:
			s.close()
			return nil, errors.New("serve-http: no HTTP runner for " + k.String())
		}
		s.runners = append(s.runners, r)
	}
	return s, nil
}
