package spiralfft

import (
	"errors"
	"fmt"

	"spiralfft/internal/smp"
)

// Sentinel errors returned (wrapped, with detail) by plan constructors and
// transform methods. Test with errors.Is:
//
//	if _, err := spiralfft.NewPlan(0, nil); errors.Is(err, spiralfft.ErrInvalidSize) { ... }
var (
	// ErrInvalidSize reports a transform size outside the constructor's
	// domain (non-positive, odd for RealPlan, not a power of two for
	// WHTPlan, ...).
	ErrInvalidSize = errors.New("spiralfft: invalid transform size")
	// ErrInvalidOptions reports an Options value that no plan can honor
	// (negative worker count, out-of-range enum, ...).
	ErrInvalidOptions = errors.New("spiralfft: invalid options")
	// ErrLengthMismatch reports dst/src slices whose lengths do not match
	// what the plan requires.
	ErrLengthMismatch = errors.New("spiralfft: length mismatch")
	// ErrClosed reports a transform on a plan that has been closed.
	ErrClosed = errors.New("spiralfft: plan closed")
)

// Validate reports whether the options are usable by any plan constructor.
// The zero value and nil are valid (they select the sequential defaults);
// zero fields mean "default", so only genuinely meaningless values —
// negative counts, unknown enum constants — fail. Every New*Plan calls
// Validate and returns the error wrapped in ErrInvalidOptions.
func (o *Options) Validate() error {
	if o == nil {
		return nil
	}
	if o.Workers < 0 {
		return fmt.Errorf("%w: negative worker count %d", ErrInvalidOptions, o.Workers)
	}
	if o.CacheLineComplex < 0 {
		return fmt.Errorf("%w: negative cache-line length %d", ErrInvalidOptions, o.CacheLineComplex)
	}
	if o.Backend != BackendPool && o.Backend != BackendSpawn {
		return fmt.Errorf("%w: unknown backend %d", ErrInvalidOptions, int(o.Backend))
	}
	if o.Planner < PlannerFixed || o.Planner > PlannerExhaustive {
		return fmt.Errorf("%w: unknown planner %d", ErrInvalidOptions, int(o.Planner))
	}
	if o.PlanBudget < 0 {
		return fmt.Errorf("%w: negative plan budget %v", ErrInvalidOptions, o.PlanBudget)
	}
	return nil
}

// lengthError builds an ErrLengthMismatch with call-site detail.
func lengthError(method string, want, dst, src int) error {
	return fmt.Errorf("%w: %s: plan wants %d, dst %d, src %d", ErrLengthMismatch, method, want, dst, src)
}

// RegionPanicError is the panic value transform entry points re-throw when
// user-visible work inside a parallel (or sequential) region panics — a
// poisoned codelet table, an out-of-range permutation, memory corruption.
// The execution substrate recovers the panic on the worker that hit it,
// keeps the barrier protocol and the worker pool intact, and re-raises one
// representative panic on the calling goroutine as this type; the plan (and
// its pool) remain fully usable for subsequent transforms.
//
// It is delivered by panic, not by error return: a region panic is a bug,
// not an input condition. Callers that must survive bugs in-process recover
// it like any other panic:
//
//	defer func() {
//		var rp *spiralfft.RegionPanicError
//		if r := recover(); r != nil {
//			if e, ok := r.(*spiralfft.RegionPanicError); ok { rp = e } else { panic(r) }
//		}
//		...
//	}()
type RegionPanicError struct {
	// Worker is the worker (0-based) whose region body panicked. When
	// several workers panic in one transform, one representative is kept.
	Worker int
	// Value is the original panic value.
	Value any
	// Stack is the panicking worker's stack trace, captured at recovery.
	Stack []byte
}

// Error renders the panic; RegionPanicError also satisfies error so it can
// be stored or logged uniformly after being recovered.
func (e *RegionPanicError) Error() string {
	return fmt.Sprintf("spiralfft: panic in transform region on worker %d: %v", e.Worker, e.Value)
}

// Unwrap exposes Value when the region panicked with an error.
func (e *RegionPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// rethrowAsRegionPanic is deferred by every transform entry point: it
// converts the substrate's internal *smp.WorkerPanic into the public
// *RegionPanicError and lets every other panic value propagate unchanged.
func rethrowAsRegionPanic() {
	r := recover()
	if r == nil {
		return
	}
	if wp, ok := r.(*smp.WorkerPanic); ok {
		panic(&RegionPanicError{Worker: wp.Worker, Value: wp.Value, Stack: wp.Stack})
	}
	panic(r)
}
