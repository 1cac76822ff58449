package spiralfft

import (
	"sync"
	"unsafe"
)

// This file is the zero-copy buffer-lease surface. A server (or any other
// long-lived caller) that pushes many transforms through one plan should not
// allocate a fresh request/response buffer pair per call: it checks a Lease
// out of the plan's arena, fills Lease.In, transforms into Lease.Out, ships
// the result, and Releases the lease back for the next request. The arena is
// a per-plan sync.Pool of cache-line-aligned buffers, so the steady-state
// hot path performs zero buffer allocations, and the alignment guarantee
// extends the paper's false-sharing-free property to the I/O buffers
// themselves: a leased buffer never shares a cache line with foreign data.
//
// Every plan family participates:
//
//	Plan, BatchPlan, Plan2D, WHTPlan  →  Buffers() *Lease       (complex in/out)
//	RealPlan, STFTPlan                →  Buffers() *RealLease   (real in, half-spectrum out)
//	DCTPlan                           →  Buffers() *FloatLease  (real in/out)
//
// Leases are not concurrency-safe objects themselves (one goroutine owns a
// lease between checkout and Release), but any number of goroutines may hold
// distinct leases from one plan concurrently — the arena is a pool, not a
// slot.

// leaseAlign is the alignment of every leased buffer, in bytes: one cache
// line, matching the µ-alignment the rewriting system assumes for vectors.
const leaseAlign = 64

// alignedComplex returns a length-n complex128 slice whose first element
// starts on a leaseAlign boundary (over-allocating by up to one line).
func alignedComplex(n int) []complex128 {
	if n == 0 {
		return nil
	}
	const elem = int(unsafe.Sizeof(complex128(0)))
	raw := make([]complex128, n+leaseAlign/elem)
	off := 0
	if rem := uintptr(unsafe.Pointer(&raw[0])) % leaseAlign; rem != 0 {
		off = (leaseAlign - int(rem)) / elem
	}
	return raw[off : off+n : off+n]
}

// alignedFloat is alignedComplex for float64 buffers.
func alignedFloat(n int) []float64 {
	if n == 0 {
		return nil
	}
	const elem = int(unsafe.Sizeof(float64(0)))
	raw := make([]float64, n+leaseAlign/elem)
	off := 0
	if rem := uintptr(unsafe.Pointer(&raw[0])) % leaseAlign; rem != 0 {
		off = (leaseAlign - int(rem)) / elem
	}
	return raw[off : off+n : off+n]
}

// Lease is a checked-out input/output buffer pair for one transform of a
// complex-vector plan. In and Out are cache-line-aligned and sized exactly
// to the plan's Len(). The holder fills In, calls the plan's Forward/Inverse
// (typically Forward(l.Out, l.In)), consumes Out, and Releases the lease.
// In == Out aliasing is never the case: the pair is two distinct buffers, so
// in-place-averse callers need no copies.
type Lease struct {
	In, Out []complex128
	arena   *sync.Pool
}

// Release returns the lease to its plan's arena for reuse. Release must be
// called exactly once per checkout; the buffers must not be used afterwards.
// Releasing a nil lease is a no-op.
func (l *Lease) Release() {
	if l != nil && l.arena != nil {
		l.arena.Put(l)
	}
}

// RealLease is the lease shape of plans whose time-domain side is real and
// whose spectrum side is the packed half spectrum: In holds the real signal
// (or one STFT frame), Out the n/2+1 non-redundant bins.
type RealLease struct {
	In    []float64
	Out   []complex128
	arena *sync.Pool
}

// Release returns the lease to its plan's arena. See Lease.Release.
func (l *RealLease) Release() {
	if l != nil && l.arena != nil {
		l.arena.Put(l)
	}
}

// FloatLease is the lease shape of real-to-real plans (the DCT): In and Out
// are both length-n float64 buffers.
type FloatLease struct {
	In, Out []float64
	arena   *sync.Pool
}

// Release returns the lease to its plan's arena. See Lease.Release.
func (l *FloatLease) Release() {
	if l != nil && l.arena != nil {
		l.arena.Put(l)
	}
}

// initComplexLeases arms the plan's arena to vend *Lease values of the given
// buffer lengths. Called once at construction, before the plan is shared.
func (c *planCore) initComplexLeases(inLen, outLen int) {
	c.leases.New = func() any {
		return &Lease{In: alignedComplex(inLen), Out: alignedComplex(outLen), arena: &c.leases}
	}
}

// initRealLeases arms the arena for *RealLease values.
func (c *planCore) initRealLeases(inLen, outLen int) {
	c.leases.New = func() any {
		return &RealLease{In: alignedFloat(inLen), Out: alignedComplex(outLen), arena: &c.leases}
	}
}

// initFloatLeases arms the arena for *FloatLease values.
func (c *planCore) initFloatLeases(inLen, outLen int) {
	c.leases.New = func() any {
		return &FloatLease{In: alignedFloat(inLen), Out: alignedFloat(outLen), arena: &c.leases}
	}
}

// Buffers checks an aligned In/Out buffer pair (each of length N) out of the
// plan's arena. The checkout is allocation-free in the steady state; call
// Release to return the pair. Safe for concurrent use.
func (p *Plan) Buffers() *Lease { return p.leases.Get().(*Lease) }

// Buffers checks out a buffer pair covering the whole batch (length
// N·Count). See Plan.Buffers for the lease contract.
func (b *BatchPlan) Buffers() *Lease { return b.leases.Get().(*Lease) }

// Buffers checks out a buffer pair covering the whole array (length
// rows·cols, row-major). See Plan.Buffers for the lease contract.
func (p *Plan2D) Buffers() *Lease { return p.leases.Get().(*Lease) }

// Buffers checks an aligned In/Out pair of length N out of the plan's
// arena. See Plan.Buffers for the lease contract.
func (p *WHTPlan) Buffers() *Lease { return p.leases.Get().(*Lease) }

// Buffers checks out a real-signal/half-spectrum pair: In has length N,
// Out has length N/2+1. See Plan.Buffers for the lease contract.
func (p *RealPlan) Buffers() *RealLease { return p.half.leases.Get().(*RealLease) }

// Buffers checks out a single-frame pair: In has length Frame(), Out has
// length Bins(). Whole-signal Analyze/Synthesize calls size their own
// spectrogram storage (NewSpectrogram); the lease covers the per-frame
// streaming path. See Plan.Buffers for the lease contract.
func (p *STFTPlan) Buffers() *RealLease { return p.leases.Get().(*RealLease) }

// Buffers checks out a real In/Out pair of length N. See Plan.Buffers for
// the lease contract.
func (p *DCTPlan) Buffers() *FloatLease { return p.leases.Get().(*FloatLease) }
