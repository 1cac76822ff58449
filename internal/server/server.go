// Package server is the transform-serving core behind cmd/fftd: it owns a
// table of live plan handles (one Serve-able handle per plan family and
// size), maps request deadlines onto the library's region-granular
// cancellation contract, and applies admission control driven by the smp
// saturation signal so an overloaded daemon sheds load instead of queueing
// unboundedly.
//
// The package is split from cmd/fftd so the hot path — Transform, which
// moves bytes between a connection and a leased plan buffer — is testable
// without net/http in the loop: the allocation guarantee ("steady-state
// requests allocate nothing") is asserted directly against this core.
package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"spiralfft"
	"spiralfft/internal/metrics"
	"spiralfft/internal/smp"
	"spiralfft/internal/wire"
)

// Family names a plan family on the wire.
type Family string

// The seven servable plan families.
const (
	FamilyDFT   Family = "dft"
	FamilyBatch Family = "batch"
	FamilyDFT2D Family = "dft2d"
	FamilyWHT   Family = "wht"
	FamilyReal  Family = "real"
	FamilyDCT   Family = "dct"
	FamilySTFT  Family = "stft"
)

// ErrOverloaded is returned (and mapped to HTTP 429) when admission control
// rejects a request.
var ErrOverloaded = errors.New("fftd: overloaded")

// Config parameterizes a Server. The zero value is usable: every field has
// a serving-appropriate default.
type Config struct {
	// Workers and Mu are the plan parameters (p, µ) every served plan is
	// built with. Defaults: GOMAXPROCS workers, library-default µ.
	Workers int
	Mu      int
	// Planner selects the tuning strategy for served plans.
	Planner spiralfft.Planner
	// PlanBudget bounds planning time for measuring planners. It is a
	// server-level setting, not per-request: Options.PlanBudget is part of
	// the plan-cache fingerprint, so per-request budgets would fragment
	// the cache into one entry per distinct budget.
	PlanBudget time.Duration
	// MaxInFlight caps concurrently admitted requests (default
	// 2×GOMAXPROCS). The first request is always admitted.
	MaxInFlight int
	// MaxN caps the total element count of any request (default 1<<22).
	MaxN int
	// MaxDeadline caps (and, when a request carries no deadline,
	// provides) the per-request execution deadline. Default 30s.
	MaxDeadline time.Duration
	// Cache is the plan cache backing the dft and real families (the two
	// the process-wide Cache understands). Nil means the process-wide
	// default cache, so a daemon embedded in a larger program shares
	// plans with it.
	Cache *spiralfft.Cache
}

func (c Config) withDefaults() Config {
	if c.Workers == 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.MaxInFlight == 0 {
		c.MaxInFlight = 2 * runtime.GOMAXPROCS(0)
	}
	if c.MaxN == 0 {
		c.MaxN = 1 << 22
	}
	if c.MaxDeadline == 0 {
		c.MaxDeadline = 30 * time.Second
	}
	if c.Cache == nil {
		c.Cache = spiralfft.DefaultCache()
	}
	return c
}

// Request describes one transform job, independent of transport: the HTTP
// layer parses headers into a Request, tests construct them directly.
type Request struct {
	Family  Family
	Inverse bool

	// N is the transform size (dft, wht, real, dct), the per-transform
	// size (batch), or the signal length (stft).
	N int
	// Count is the batch count (batch family only).
	Count int
	// Rows, Cols are the 2-D extents (dft2d family only).
	Rows, Cols int
	// Frame, Hop are the STFT analysis parameters (stft family only).
	Frame, Hop int

	// Tenant selects the wisdom namespace; plans tuned for one tenant
	// never leak trees into another's. Empty is the shared namespace.
	Tenant string
}

// key collapses the family-specific extents into a handle-table key.
func (r *Request) key() planKey {
	k := planKey{family: r.Family, tenant: r.Tenant, a: r.N}
	switch r.Family {
	case FamilyBatch:
		k.b = r.Count
	case FamilyDFT2D:
		k.a, k.b = r.Rows, r.Cols
	case FamilySTFT:
		k.b, k.c = r.Frame, r.Hop
	}
	return k
}

type planKey struct {
	family  Family
	a, b, c int
	tenant  string
}

// validate checks extents against cfg limits.
func (r *Request) validate(cfg *Config) error {
	switch r.Family {
	case FamilyDFT, FamilyWHT, FamilyReal, FamilyDCT:
		if r.N < 1 || r.N > cfg.MaxN {
			return fmt.Errorf("fftd: n=%d out of range [1, %d]", r.N, cfg.MaxN)
		}
	case FamilyBatch:
		if r.N < 1 || r.Count < 1 || r.N > cfg.MaxN || r.Count > cfg.MaxN || r.N*r.Count > cfg.MaxN {
			return fmt.Errorf("fftd: batch %d×%d out of range (max total %d)", r.Count, r.N, cfg.MaxN)
		}
	case FamilyDFT2D:
		if r.Rows < 1 || r.Cols < 1 || r.Rows > cfg.MaxN || r.Cols > cfg.MaxN || r.Rows*r.Cols > cfg.MaxN {
			return fmt.Errorf("fftd: dft2d %d×%d out of range (max total %d)", r.Rows, r.Cols, cfg.MaxN)
		}
	case FamilySTFT:
		if r.Frame < 2 || r.N < r.Frame || r.Hop < 1 || r.N > cfg.MaxN {
			return fmt.Errorf("fftd: stft frame=%d hop=%d signal=%d invalid (max signal %d)", r.Frame, r.Hop, r.N, cfg.MaxN)
		}
	default:
		return fmt.Errorf("fftd: unknown family %q", r.Family)
	}
	return nil
}

// Server serves transforms. Create with New; safe for concurrent use.
type Server struct {
	cfg   Config
	start time.Time

	mu      sync.Mutex
	handles map[planKey]*handle
	tenants map[string]*spiralfft.Wisdom
	closed  bool

	inflight atomic.Int64
	rec      metrics.RequestRecorder
}

// New builds a Server from cfg (zero value fine).
func New(cfg Config) *Server {
	return &Server{
		cfg:     cfg.withDefaults(),
		start:   time.Now(),
		handles: make(map[planKey]*handle),
		tenants: make(map[string]*spiralfft.Wisdom),
	}
}

// Config returns the effective (defaulted) configuration.
func (s *Server) Config() Config { return s.cfg }

// Wisdom returns tenant's wisdom namespace, creating it on first use.
// Plans already built for the tenant are unaffected by later Imports; new
// sizes consult the imported trees.
func (s *Server) Wisdom(tenant string) *spiralfft.Wisdom {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.wisdomLocked(tenant)
}

func (s *Server) wisdomLocked(tenant string) *spiralfft.Wisdom {
	w, ok := s.tenants[tenant]
	if !ok {
		w = spiralfft.NewWisdom()
		s.tenants[tenant] = w
	}
	return w
}

// Admit runs admission control for one request. On success it returns a
// release func the caller must invoke when the request finishes. On
// rejection it records a shed outcome and returns a Retry-After hint
// derived from the server's median service time.
//
// Policy: the first in-flight request is always admitted (an idle server
// never sheds); beyond that a request is shed when the in-flight count
// would exceed MaxInFlight or when the smp substrate reports that admitting
// another plan's worth of workers would oversubscribe the machine.
func (s *Server) Admit() (release func(), retryAfter time.Duration, ok bool) {
	cur := s.inflight.Add(1)
	if cur > 1 && (cur > int64(s.cfg.MaxInFlight) || smp.Saturated(s.cfg.Workers)) {
		s.inflight.Add(-1)
		s.rec.Record(metrics.OutcomeShed, 0)
		return nil, s.RetryAfter(), false
	}
	return func() { s.inflight.Add(-1) }, 0, true
}

// RetryAfter suggests how long a shed client should back off: one median
// request service time, floored at one second (the header's granularity).
func (s *Server) RetryAfter() time.Duration {
	p50 := s.rec.Snapshot().Latency.Quantile(0.5)
	if p50 < time.Second {
		return time.Second
	}
	return p50.Round(time.Second)
}

// Metrics returns the request-outcome counters and latency histogram.
func (s *Server) Metrics() metrics.RequestSnapshot { return s.rec.Snapshot() }

// InFlight returns the number of currently admitted requests.
func (s *Server) InFlight() int64 { return s.inflight.Load() }

// Uptime returns time since New.
func (s *Server) Uptime() time.Duration { return time.Since(s.start) }

// PlanCount returns the number of live plan handles.
func (s *Server) PlanCount() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.handles)
}

// Transform executes one request: it reads exactly the request's input
// payload from r (wire format; see SPEC.md), transforms, and writes the
// output payload to w. ctx carries the request deadline; cancellation is
// observed at region boundaries, so a cancelled call returns promptly with
// ctx's error and w holds whatever prefix was already written (for the
// one-shot endpoint: nothing, since output is written only on success).
//
// Steady state (handle already built, non-STFT family) performs zero heap
// allocations: input lands directly in a leased aligned buffer, output is
// written from one. A nil ctx skips cancellation checks entirely.
func (s *Server) Transform(ctx context.Context, req *Request, r io.Reader, w io.Writer) error {
	start := time.Now()
	h, err := s.handleFor(req)
	if err != nil {
		s.rec.Record(metrics.OutcomeError, time.Since(start))
		return err
	}
	err = h.serve(ctx, req, r, w)
	s.rec.Record(outcomeOf(ctx, err), time.Since(start))
	return err
}

// outcomeOf classifies a finished request.
func outcomeOf(ctx context.Context, err error) metrics.Outcome {
	switch {
	case err == nil:
		return metrics.OutcomeOK
	case errors.Is(err, context.Canceled), errors.Is(err, context.DeadlineExceeded),
		ctx != nil && ctx.Err() != nil:
		return metrics.OutcomeCancelled
	default:
		return metrics.OutcomeError
	}
}

// InputBytes returns the exact wire size of the request's input payload
// (for stream-frame validation). The request must validate first.
func (s *Server) InputBytes(req *Request) (int, error) {
	h, err := s.handleFor(req)
	if err != nil {
		return 0, err
	}
	if req.Inverse {
		return h.invInBytes, nil
	}
	return h.fwdInBytes, nil
}

// OutputBytes returns the exact wire size of the request's output payload.
func (s *Server) OutputBytes(req *Request) (int, error) {
	h, err := s.handleFor(req)
	if err != nil {
		return 0, err
	}
	if req.Inverse {
		return h.invOutBytes, nil
	}
	return h.fwdOutBytes, nil
}

// handleFor returns the live handle for req's plan key, building it (once,
// single-flight) on first use. Build errors are not cached: a failed build
// clears the table slot so a later request can retry.
func (s *Server) handleFor(req *Request) (*handle, error) {
	if err := req.validate(&s.cfg); err != nil {
		return nil, err
	}
	key := req.key()
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, errors.New("fftd: server closed")
	}
	h, ok := s.handles[key]
	if ok {
		s.mu.Unlock()
		<-h.ready
		if h.err != nil {
			return nil, h.err
		}
		return h, nil
	}
	h = &handle{ready: make(chan struct{})}
	s.handles[key] = h
	wis := s.wisdomLocked(req.Tenant)
	s.mu.Unlock()

	h.err = h.build(req, &s.cfg, wis)
	close(h.ready)
	if h.err != nil {
		s.mu.Lock()
		if s.handles[key] == h {
			delete(s.handles, key)
		}
		s.mu.Unlock()
		return nil, h.err
	}
	return h, nil
}

// Close releases every plan handle. In-flight requests should drain first
// (the HTTP layer's shutdown does); Close is idempotent.
func (s *Server) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	handles := s.handles
	s.handles = make(map[planKey]*handle)
	s.mu.Unlock()
	for _, h := range handles {
		<-h.ready
		h.close()
	}
}

// ---------------------------------------------------------------------------
// Plan handles

// handle is one live plan: the typed plan pointer for its family plus the
// wire payload sizes. Exactly one of the plan fields is non-nil.
type handle struct {
	ready chan struct{}
	err   error

	// cplx serves the complex-vector families (dft, batch, dft2d, wht).
	cplx spiralfft.BufferedTransformer
	real *spiralfft.RealPlan
	dct  *spiralfft.DCTPlan
	stft *spiralfft.STFTPlan

	// Wire payload sizes in bytes for the forward and inverse directions
	// (forward output == inverse input and vice versa).
	fwdInBytes, fwdOutBytes int
	invInBytes, invOutBytes int

	// signalLen/numFrames specialize the stft handle (signal length is
	// part of the plan key).
	signalLen, numFrames int
}

func (h *handle) build(req *Request, cfg *Config, wis *spiralfft.Wisdom) error {
	o := &spiralfft.Options{
		Workers:          cfg.Workers,
		CacheLineComplex: cfg.Mu,
		Planner:          cfg.Planner,
		PlanBudget:       cfg.PlanBudget,
		Wisdom:           wis,
	}
	switch req.Family {
	case FamilyDFT:
		// dft and real go through the plan cache: a daemon embedded in a
		// larger program shares these plans with its host, and repeated
		// builds after Close are ref-counted rather than re-tuned.
		p, err := spiralfft.AcquireFrom[*spiralfft.Plan](cfg.Cache, req.N, o)
		if err != nil {
			return err
		}
		h.cplx = p
	case FamilyBatch:
		p, err := spiralfft.NewBatchPlan(req.N, req.Count, o)
		if err != nil {
			return err
		}
		h.cplx = p
	case FamilyDFT2D:
		p, err := spiralfft.NewPlan2D(req.Rows, req.Cols, o)
		if err != nil {
			return err
		}
		h.cplx = p
	case FamilyWHT:
		p, err := spiralfft.NewWHTPlan(req.N, o)
		if err != nil {
			return err
		}
		h.cplx = p
	case FamilyReal:
		p, err := spiralfft.AcquireFrom[*spiralfft.RealPlan](cfg.Cache, req.N, o)
		if err != nil {
			return err
		}
		h.real = p
		h.fwdInBytes, h.fwdOutBytes = req.N*8, (req.N/2+1)*16
	case FamilyDCT:
		p, err := spiralfft.NewDCTPlan(req.N, o)
		if err != nil {
			return err
		}
		h.dct = p
		h.symmetric(req.N * 8)
	case FamilySTFT:
		p, err := spiralfft.NewSTFTPlan(req.Frame, req.Hop, spiralfft.WindowHann, o)
		if err != nil {
			return err
		}
		h.stft = p
		h.signalLen = req.N
		h.numFrames = p.NumFrames(req.N)
		h.fwdInBytes = req.N * 8
		h.fwdOutBytes = h.numFrames * p.Bins() * 16
	}
	if h.cplx != nil {
		h.symmetric(h.cplx.Len() * 16)
	}
	if h.invInBytes == 0 {
		h.invInBytes, h.invOutBytes = h.fwdOutBytes, h.fwdInBytes
	}
	return nil
}

// symmetric sets all four payload sizes for families whose input and
// output have the same shape.
func (h *handle) symmetric(bytes int) {
	h.fwdInBytes, h.fwdOutBytes = bytes, bytes
	h.invInBytes, h.invOutBytes = bytes, bytes
}

// serve runs one request against the handle's plan. The complex and dct
// families lease buffers from the plan's arena and are allocation-free;
// stft allocates its spectrogram (variable-length output, documented as
// outside the zero-alloc guarantee).
func (h *handle) serve(ctx context.Context, req *Request, r io.Reader, w io.Writer) error {
	switch {
	case h.cplx != nil:
		l := h.cplx.Buffers()
		defer l.Release()
		if err := wire.ReadComplexLE(r, l.In); err != nil {
			return err
		}
		var err error
		if req.Inverse {
			err = h.cplx.InverseCtx(ctx, l.Out, l.In)
		} else {
			err = h.cplx.ForwardCtx(ctx, l.Out, l.In)
		}
		if err != nil {
			return err
		}
		return wire.WriteComplexLE(w, l.Out)
	case h.real != nil:
		l := h.real.Buffers()
		defer l.Release()
		if req.Inverse {
			// The lease is shaped for forward (In real, Out complex);
			// inverse reuses it with the roles swapped.
			if err := wire.ReadComplexLE(r, l.Out); err != nil {
				return err
			}
			if err := h.real.InverseCtx(ctx, l.In, l.Out); err != nil {
				return err
			}
			return wire.WriteFloatLE(w, l.In)
		}
		if err := wire.ReadFloatLE(r, l.In); err != nil {
			return err
		}
		if err := h.real.ForwardCtx(ctx, l.Out, l.In); err != nil {
			return err
		}
		return wire.WriteComplexLE(w, l.Out)
	case h.dct != nil:
		l := h.dct.Buffers()
		defer l.Release()
		if err := wire.ReadFloatLE(r, l.In); err != nil {
			return err
		}
		var err error
		if req.Inverse {
			err = h.dct.InverseCtx(ctx, l.Out, l.In)
		} else {
			err = h.dct.ForwardCtx(ctx, l.Out, l.In)
		}
		if err != nil {
			return err
		}
		return wire.WriteFloatLE(w, l.Out)
	case h.stft != nil:
		return h.serveSTFT(ctx, req, r, w)
	}
	return errors.New("fftd: empty handle")
}

// serveSTFT handles the one variable-length family: forward reads a signal
// and writes the spectrogram row by row; inverse reads a spectrogram and
// writes the overlap-added signal.
func (h *handle) serveSTFT(ctx context.Context, req *Request, r io.Reader, w io.Writer) error {
	signal := make([]float64, h.signalLen)
	frames := h.stft.NewSpectrogram(h.signalLen)
	if req.Inverse {
		for _, row := range frames {
			if err := wire.ReadComplexLE(r, row); err != nil {
				return err
			}
		}
		if err := h.stft.SynthesizeCtx(ctx, signal, frames); err != nil {
			return err
		}
		return wire.WriteFloatLE(w, signal)
	}
	if err := wire.ReadFloatLE(r, signal); err != nil {
		return err
	}
	if err := h.stft.AnalyzeCtx(ctx, frames, signal); err != nil {
		return err
	}
	for _, row := range frames {
		if err := wire.WriteComplexLE(w, row); err != nil {
			return err
		}
	}
	return nil
}

func (h *handle) close() {
	switch {
	case h.cplx != nil:
		h.cplx.Close()
	case h.real != nil:
		h.real.Close()
	case h.dct != nil:
		h.dct.Close()
	case h.stft != nil:
		h.stft.Close()
	}
}
