package spiralfft

import (
	"context"
	"fmt"
	"math"
	"sync"

	"spiralfft/internal/exec"
	"spiralfft/internal/ir"
	"spiralfft/internal/metrics"
)

// Window selects the analysis window of an STFT plan.
type Window int

const (
	// WindowHann is the raised cosine window (default; satisfies the
	// constant-overlap-add condition at 50% overlap).
	WindowHann Window = iota
	// WindowHamming is the Hamming window.
	WindowHamming
	// WindowRect is the rectangular window (no tapering).
	WindowRect
)

// String names the window.
func (w Window) String() string {
	switch w {
	case WindowHamming:
		return "hamming"
	case WindowRect:
		return "rect"
	default:
		return "hann"
	}
}

// STFTPlan computes the short-time Fourier transform of real signals: the
// signal is cut into frames of length Frame every Hop samples, each frame
// is windowed and transformed with a RealPlan (half spectrum), and
// Synthesize reconstructs the signal by weighted overlap-add. This is the
// streaming workload (many small transforms per second) for which the
// paper's low-overhead small-size parallel plans matter.
//
// An STFTPlan is safe for concurrent use: several goroutines can analyze
// different signals (or disjoint frame ranges) through one shared plan.
type STFTPlan struct {
	frame, hop int
	win        []float64
	winSq      []float64 // window², for the overlap-add normalization
	rp         *RealPlan
	ctxs       sync.Pool // *stftCtx
	// planCore carries the transform recorder — the nominal count is per
	// frame, 2.5·frame·log2(frame); Analyze/Synthesize record frames·that —
	// and delegates pool and barrier statistics to the inner real plan.
	planCore
}

// stftCtx is the per-call windowed-frame workspace.
type stftCtx struct {
	buf []float64
}

// NewSTFTPlan prepares an STFT with the given frame length (even ≥ 2) and
// hop (1 ≤ hop ≤ frame). Perfect reconstruction requires the window/hop
// pair to satisfy the constant-overlap-add condition; Hann with hop =
// frame/2 (the default pairing) does.
func NewSTFTPlan(frame, hop int, window Window, o *Options) (*STFTPlan, error) {
	if frame < 2 || frame%2 != 0 {
		return nil, fmt.Errorf("%w: STFT frame must be even ≥ 2, got %d", ErrInvalidSize, frame)
	}
	if hop < 1 || hop > frame {
		return nil, fmt.Errorf("%w: STFT hop %d out of range [1, %d]", ErrInvalidSize, hop, frame)
	}
	rp, err := NewRealPlan(frame, o)
	if err != nil {
		return nil, err
	}
	p := &STFTPlan{
		frame: frame,
		hop:   hop,
		win:   make([]float64, frame),
		winSq: make([]float64, frame),
		rp:    rp,
	}
	p.init(tkSTFT, int64(exec.FlopCount(frame)/2))
	p.initRealLeases(frame, frame/2+1)
	p.inner = rp
	p.ctxs.New = func() any { return &stftCtx{buf: make([]float64, frame)} }
	for i := range p.win {
		var v float64
		switch window {
		case WindowHamming:
			v = 0.54 - 0.46*math.Cos(2*math.Pi*float64(i)/float64(frame-1))
		case WindowRect:
			v = 1
		default:
			v = 0.5 - 0.5*math.Cos(2*math.Pi*float64(i)/float64(frame))
		}
		p.win[i] = v
		p.winSq[i] = v * v
	}
	return p, nil
}

// Frame returns the frame length.
func (p *STFTPlan) Frame() int { return p.frame }

// N returns the frame length (the per-frame transform size), satisfying the
// RealTransformer interface.
func (p *STFTPlan) N() int { return p.frame }

// Hop returns the hop size.
func (p *STFTPlan) Hop() int { return p.hop }

// Bins returns the per-frame spectrum length, frame/2 + 1.
func (p *STFTPlan) Bins() int { return p.frame/2 + 1 }

// Program returns the lowered IR program of the real-input DFT that Forward
// runs on each windowed frame (see RealPlan.Program). The program is shared
// — callers must not mutate it.
func (p *STFTPlan) Program() *ir.Program { return p.rp.Program() }

// NumFrames returns how many complete frames Analyze extracts from a signal
// of the given length (frames that would run past the end are dropped).
func (p *STFTPlan) NumFrames(signalLen int) int {
	if signalLen < p.frame {
		return 0
	}
	return (signalLen-p.frame)/p.hop + 1
}

// Forward computes the windowed spectrum of one frame: dst[k] =
// DFT(win ⊙ src)[k] for the Bins() non-redundant bins. len(src) must be
// Frame() and len(dst) must be Bins(). This is the per-frame primitive of
// Analyze, exposed for streaming callers that produce frames one at a time.
// Forward is safe for concurrent use.
func (p *STFTPlan) Forward(dst []complex128, src []float64) error {
	if len(src) != p.frame || len(dst) != p.Bins() {
		return fmt.Errorf("%w: STFT Forward: src %d (want %d), dst %d (want %d)",
			ErrLengthMismatch, len(src), p.frame, len(dst), p.Bins())
	}
	start := metrics.Now()
	ctx := p.ctxs.Get().(*stftCtx)
	defer p.ctxs.Put(ctx)
	for i := 0; i < p.frame; i++ {
		ctx.buf[i] = src[i] * p.win[i]
	}
	if err := p.rp.Forward(dst, ctx.buf); err != nil {
		return err
	}
	p.record(start)
	return nil
}

// Inverse computes the windowed inverse of one frame's spectrum: the real
// inverse DFT followed by the synthesis window — the per-frame step of
// Synthesize's weighted overlap-add. Exact reconstruction of a signal
// requires overlap-adding successive frames (use Synthesize); a lone frame
// additionally carries the window². len(src) must be Bins() and len(dst)
// must be Frame(). Inverse is safe for concurrent use.
func (p *STFTPlan) Inverse(dst []float64, src []complex128) error {
	if len(src) != p.Bins() || len(dst) != p.frame {
		return fmt.Errorf("%w: STFT Inverse: src %d (want %d), dst %d (want %d)",
			ErrLengthMismatch, len(src), p.Bins(), len(dst), p.frame)
	}
	start := metrics.Now()
	if err := p.rp.Inverse(dst, src); err != nil {
		return err
	}
	for i := 0; i < p.frame; i++ {
		dst[i] *= p.win[i]
	}
	p.record(start)
	return nil
}

// Analyze computes the spectrogram of signal: dst must have NumFrames rows
// of Bins() elements each (allocate with NewSpectrogram).
// Analyze is safe for concurrent use.
func (p *STFTPlan) Analyze(dst [][]complex128, signal []float64) error {
	return p.AnalyzeCtx(nil, dst, signal)
}

// AnalyzeCtx is Analyze under a context: cancellation is observed between
// frames (and inside each frame's transform at region boundaries), so a
// long spectrogram pass abandons within about one frame of a cancel. On
// cancellation the error is ctx.Err() and dst holds the frames completed so
// far. A nil ctx behaves like Analyze.
func (p *STFTPlan) AnalyzeCtx(cctx context.Context, dst [][]complex128, signal []float64) error {
	if err := p.open(); err != nil {
		return err
	}
	frames := p.NumFrames(len(signal))
	if len(dst) != frames {
		return fmt.Errorf("%w: Analyze needs %d frames, got %d", ErrLengthMismatch, frames, len(dst))
	}
	start := metrics.Now()
	ctx := p.ctxs.Get().(*stftCtx)
	defer p.ctxs.Put(ctx)
	for f := 0; f < frames; f++ {
		if cctx != nil {
			if err := cctx.Err(); err != nil {
				return err
			}
		}
		if len(dst[f]) != p.Bins() {
			return fmt.Errorf("%w: frame %d has %d bins, want %d", ErrLengthMismatch, f, len(dst[f]), p.Bins())
		}
		off := f * p.hop
		for i := 0; i < p.frame; i++ {
			ctx.buf[i] = signal[off+i] * p.win[i]
		}
		if err := p.rp.ForwardCtx(cctx, dst[f], ctx.buf); err != nil {
			return err
		}
	}
	p.recordN(start, int64(frames)*p.flops)
	return nil
}

// NewSpectrogram allocates an Analyze output for a signal of the given length.
func (p *STFTPlan) NewSpectrogram(signalLen int) [][]complex128 {
	frames := p.NumFrames(signalLen)
	out := make([][]complex128, frames)
	for f := range out {
		out[f] = make([]complex128, p.Bins())
	}
	return out
}

// Synthesize reconstructs a signal from a spectrogram by weighted
// overlap-add: each frame is inverse-transformed, windowed again, and
// accumulated; the sum of squared windows normalizes the overlap. signal
// must have length ≥ (frames-1)·hop + frame. Samples whose window-energy
// sum is zero (possible only at the very edges with exotic hop choices)
// are left zero.
func (p *STFTPlan) Synthesize(signal []float64, frames [][]complex128) error {
	return p.SynthesizeCtx(nil, signal, frames)
}

// SynthesizeCtx is Synthesize under a context: cancellation is observed
// between frames; on cancellation the error is ctx.Err() and signal is
// unspecified (partially accumulated). A nil ctx behaves like Synthesize.
func (p *STFTPlan) SynthesizeCtx(cctx context.Context, signal []float64, frames [][]complex128) error {
	if err := p.open(); err != nil {
		return err
	}
	if len(frames) == 0 {
		return nil
	}
	need := (len(frames)-1)*p.hop + p.frame
	if len(signal) < need {
		return fmt.Errorf("%w: Synthesize needs %d samples, got %d", ErrLengthMismatch, need, len(signal))
	}
	start := metrics.Now()
	ctx := p.ctxs.Get().(*stftCtx)
	defer p.ctxs.Put(ctx)
	norm := make([]float64, len(signal))
	for i := range signal {
		signal[i] = 0
	}
	for f, spec := range frames {
		if cctx != nil {
			if err := cctx.Err(); err != nil {
				return err
			}
		}
		if len(spec) != p.Bins() {
			return fmt.Errorf("%w: frame %d has %d bins, want %d", ErrLengthMismatch, f, len(spec), p.Bins())
		}
		if err := p.rp.InverseCtx(cctx, ctx.buf, spec); err != nil {
			return err
		}
		off := f * p.hop
		for i := 0; i < p.frame; i++ {
			signal[off+i] += ctx.buf[i] * p.win[i]
			norm[off+i] += p.winSq[i]
		}
	}
	for i := range signal {
		if norm[i] > 1e-12 {
			signal[i] /= norm[i]
		}
	}
	p.recordN(start, int64(len(frames))*p.flops)
	return nil
}

// Close releases the inner plan's resources; later transforms fail with
// ErrClosed.
func (p *STFTPlan) Close() {
	p.rp.Close()
	p.release()
}
