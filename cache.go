package spiralfft

import (
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"
)

// Cache is a process-wide, concurrency-safe plan cache in the spirit of
// FFTW's planner wisdom: the first request for a (size, options) pair pays
// the full planning cost (search, rewriting, twiddle tables, worker pool),
// every later request returns the same shared plan. Plans are keyed by the
// transform kind, the size, and the canonical fingerprint of their Options
// (see Options.Fingerprint), and stored in shards indexed by size so
// requests for different sizes never contend on one lock.
//
// Returned plans are ref-counted: each successful Plan/RealPlan call takes
// one reference and must be balanced by exactly one Close on the returned
// plan. The underlying plan is destroyed only once the cache has released
// it (Cache.Close) and the last reference is gone, so in-flight transforms
// are never pulled out from under a goroutine.
//
// The zero value is ready to use. The package-level Acquire and Release
// use the process-wide DefaultCache.
type Cache struct {
	shards  [cacheShardCount]cacheShard
	hits    atomic.Int64
	misses  atomic.Int64
	waits   atomic.Int64 // single-flight waits on an in-flight build
	evicted atomic.Int64 // entries dropped by Close

	// wisdom, when attached (SetWisdom/LoadWisdomFile), is injected into
	// every plan request that does not bring its own store, so tuning
	// results accumulate across the cache's lifetime and can be persisted.
	wisdomMu sync.Mutex
	wisdom   *Wisdom
}

const cacheShardCount = 16

type cacheShard struct {
	mu      sync.Mutex
	entries map[cacheKey]*cacheEntry
}

// planKind separates transform families that share a size domain.
type planKind uint8

const (
	kindComplex planKind = iota
	kindReal
)

// cacheKey identifies one cached plan.
type cacheKey struct {
	kind planKind
	n    int
	fp   optionsFP
}

// optionsFP is the canonical comparable fingerprint of an Options value:
// the defaulted fields that affect planning, plus the Wisdom identity
// (plans consulting different wisdom stores may legitimately differ).
type optionsFP struct {
	workers int
	mu      int
	backend Backend
	planner Planner
	wisdom  *Wisdom
	budget  time.Duration
	largeN  int
}

// fingerprint returns the canonical key fields of the (possibly nil)
// options: defaults applied, so nil, &Options{}, and &Options{Workers: 1,
// CacheLineComplex: 4} all collapse to one fingerprint.
func (o *Options) fingerprint() optionsFP {
	opt := o.withDefaults()
	return optionsFP{
		workers: opt.Workers,
		mu:      opt.CacheLineComplex,
		backend: opt.Backend,
		planner: opt.Planner,
		wisdom:  opt.Wisdom,
		budget:  opt.PlanBudget,
		largeN:  opt.LargeNThreshold,
	}
}

// Fingerprint returns the canonical human-readable form of the options as
// used for plan-cache keying: defaults are applied first, so all
// spellings of the same configuration map to the same string. The Wisdom
// store participates by identity (shown as a pointer) since plans
// consulting different stores may plan differently.
func (o *Options) Fingerprint() string {
	fp := o.fingerprint()
	s := fmt.Sprintf("w=%d mu=%d backend=%s planner=%s", fp.workers, fp.mu, fp.backend, fp.planner)
	if fp.wisdom != nil {
		s += fmt.Sprintf(" wisdom=%p", fp.wisdom)
	}
	if fp.budget > 0 {
		s += fmt.Sprintf(" budget=%s", fp.budget)
	}
	if fp.largeN != DefaultLargeNThreshold {
		s += fmt.Sprintf(" largeN=%d", fp.largeN)
	}
	return s
}

// cacheEntry is one cached plan with its ref-count and build state.
type cacheEntry struct {
	shard *cacheShard
	key   cacheKey
	ready chan struct{} // closed once plan/err are set
	plan  refPlan
	err   error
	// refs/dead/destroyed are guarded by shard.mu.
	refs      int
	dead      bool // cache no longer holds the entry (Cache.Close)
	destroyed bool
}

// refPlan is the contract a plan type needs to live in a Cache: an
// unconditional destructor that bypasses the ref-count Close hook.
type refPlan interface {
	destroy()
}

func (c *Cache) shardFor(key cacheKey) *cacheShard {
	return &c.shards[(key.n^(key.n>>4))&(cacheShardCount-1)]
}

// acquire returns the entry for key with one reference taken. build is true
// when this call created the entry and must finish it.
func (c *Cache) acquire(key cacheKey) (e *cacheEntry, build bool) {
	s := c.shardFor(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	if e, ok := s.entries[key]; ok {
		e.refs++
		c.hits.Add(1)
		return e, false
	}
	if s.entries == nil {
		s.entries = make(map[cacheKey]*cacheEntry)
	}
	e = &cacheEntry{shard: s, key: key, ready: make(chan struct{}), refs: 1}
	s.entries[key] = e
	c.misses.Add(1)
	return e, true
}

// finish publishes the build result. A failed build removes the entry so a
// later request retries instead of caching the error forever.
func (e *cacheEntry) finish(plan refPlan, err error) {
	s := e.shard
	s.mu.Lock()
	e.plan, e.err = plan, err
	if err != nil {
		delete(s.entries, e.key)
	}
	s.mu.Unlock()
	close(e.ready)
}

// release drops one reference; the plan is destroyed when the cache no
// longer holds the entry and this was the last reference.
func (e *cacheEntry) release() {
	s := e.shard
	s.mu.Lock()
	if e.refs > 0 {
		e.refs--
	}
	destroy := e.dead && e.refs == 0 && !e.destroyed && e.plan != nil
	if destroy {
		e.destroyed = true
	}
	s.mu.Unlock()
	if destroy {
		e.plan.destroy()
	}
}

// get is the shared lookup/build/singleflight path. setHook installs the
// ref-count Close hook on a freshly built plan before it is published.
//
// The build path is panic-safe: if buildPlan panics, the deferred recovery
// publishes a build error (closing ready, so every single-flight waiter
// unblocks with that error instead of hanging forever), removes the entry so
// the next request retries, and re-panics so the builder goroutine still
// observes its own failure.
func (c *Cache) get(key cacheKey, buildPlan func() (refPlan, error), setHook func(refPlan, func())) (refPlan, error) {
	e, build := c.acquire(key)
	if build {
		finished := false
		defer func() {
			if finished {
				return
			}
			// buildPlan panicked past us (or the goroutine is exiting):
			// unwedge the waiters before the unwind continues.
			r := recover()
			e.finish(nil, fmt.Errorf("spiralfft: plan build panicked: %v", r))
			if r != nil {
				panic(r)
			}
		}()
		p, err := buildPlan()
		if err != nil {
			finished = true
			e.finish(nil, err)
			return nil, err
		}
		setHook(p, e.release)
		finished = true
		e.finish(p, nil)
		return p, nil
	}
	select {
	case <-e.ready:
	default:
		// The build is still in flight: this request rides along
		// (single-flight) and blocks until the builder publishes.
		c.waits.Add(1)
		<-e.ready
	}
	if e.err != nil {
		// The build this call piggybacked on failed; the builder already
		// removed the entry, so just surface the error (no reference to
		// release — failed entries never hold a plan).
		return nil, e.err
	}
	return e.plan, nil
}

// Plan returns the cached DFT plan of size n for the given options,
// planning it on first use. Concurrent requests for the same key wait for
// one build (single-flight) and share the resulting *Plan — pointer
// identity is guaranteed for equal fingerprints. Close the returned plan
// exactly once to release the reference.
func (c *Cache) Plan(n int, o *Options) (*Plan, error) {
	if n < 1 {
		return nil, fmt.Errorf("%w: %d", ErrInvalidSize, n)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = c.withWisdom(o)
	p, err := c.get(
		cacheKey{kindComplex, n, o.fingerprint()},
		func() (refPlan, error) {
			p, err := NewPlan(n, o)
			if err != nil {
				return nil, err
			}
			return p, nil
		},
		func(p refPlan, release func()) { p.(*Plan).onClose = release },
	)
	if err != nil {
		return nil, err
	}
	return p.(*Plan), nil
}

// RealPlan returns the cached real-input DFT plan of even size n for the
// given options, with the same sharing and ref-count contract as Plan.
func (c *Cache) RealPlan(n int, o *Options) (*RealPlan, error) {
	if n < 2 || n%2 != 0 {
		return nil, fmt.Errorf("%w: real plan needs even n ≥ 2, got %d", ErrInvalidSize, n)
	}
	if err := o.Validate(); err != nil {
		return nil, err
	}
	o = c.withWisdom(o)
	p, err := c.get(
		cacheKey{kindReal, n, o.fingerprint()},
		func() (refPlan, error) {
			p, err := NewRealPlan(n, o)
			if err != nil {
				return nil, err
			}
			return p, nil
		},
		func(p refPlan, release func()) { p.(*RealPlan).onClose = release },
	)
	if err != nil {
		return nil, err
	}
	return p.(*RealPlan), nil
}

// CacheStats reports cache effectiveness.
type CacheStats struct {
	// Hits counts requests served by an existing (or in-flight) plan.
	Hits int64
	// Misses counts requests that had to plan from scratch.
	Misses int64
	// SingleflightWaits counts hit requests that arrived while the plan was
	// still being built and blocked on the in-flight build.
	SingleflightWaits int64
	// Evictions counts entries dropped from the cache by Close.
	Evictions int64
	// Live is the number of plans the cache currently holds.
	Live int
}

// HitRate returns Hits / (Hits + Misses), or 0 before any request.
func (s CacheStats) HitRate() float64 {
	total := s.Hits + s.Misses
	if total == 0 {
		return 0
	}
	return float64(s.Hits) / float64(total)
}

// Stats returns a snapshot of the cache counters.
func (c *Cache) Stats() CacheStats {
	st := CacheStats{
		Hits:              c.hits.Load(),
		Misses:            c.misses.Load(),
		SingleflightWaits: c.waits.Load(),
		Evictions:         c.evicted.Load(),
	}
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		st.Live += len(s.entries)
		s.mu.Unlock()
	}
	return st
}

// Snapshot is Stats under the name the rest of the observability surface
// uses (plans, pools, and caches all expose a Snapshot method).
func (c *Cache) Snapshot() CacheStats { return c.Stats() }

// Close releases the cache's hold on every plan. Plans with outstanding
// references stay usable and are destroyed when their last holder calls
// Close; unreferenced plans are destroyed immediately. The cache itself
// remains usable (subsequent requests plan afresh), so Close doubles as a
// "drop everything" reset.
func (c *Cache) Close() {
	for i := range c.shards {
		s := &c.shards[i]
		s.mu.Lock()
		var destroy []refPlan
		for _, e := range s.entries {
			e.dead = true
			c.evicted.Add(1)
			if e.refs == 0 && !e.destroyed && e.plan != nil {
				e.destroyed = true
				destroy = append(destroy, e.plan)
			}
		}
		s.entries = nil
		s.mu.Unlock()
		for _, p := range destroy {
			p.destroy()
		}
	}
}

// SetWisdom attaches a wisdom store to the cache. Subsequent plan requests
// whose Options carry no Wisdom of their own consult and feed this store;
// requests that bring their own store are left alone. Attaching a store does
// not retroactively affect plans already cached (their fingerprints differ,
// so they age out naturally on Close). A nil store detaches.
func (c *Cache) SetWisdom(w *Wisdom) {
	c.wisdomMu.Lock()
	c.wisdom = w
	c.wisdomMu.Unlock()
}

// Wisdom returns the attached store, creating an empty one on first use so
// callers can always export what the cache has learned.
func (c *Cache) Wisdom() *Wisdom {
	c.wisdomMu.Lock()
	defer c.wisdomMu.Unlock()
	if c.wisdom == nil {
		c.wisdom = NewWisdom()
	}
	return c.wisdom
}

// withWisdom injects the cache's wisdom store into options that carry none.
// The original Options value is never mutated.
func (c *Cache) withWisdom(o *Options) *Options {
	c.wisdomMu.Lock()
	w := c.wisdom
	c.wisdomMu.Unlock()
	if w == nil || (o != nil && o.Wisdom != nil) {
		return o
	}
	oc := Options{Wisdom: w}
	if o != nil {
		oc = *o
		oc.Wisdom = w
	}
	return &oc
}

// LoadWisdomFile merges a wisdom file into the cache's store (attaching an
// empty store first if none is attached). A missing file is not an error —
// cold starts on a fresh machine simply begin with no wisdom.
func (c *Cache) LoadWisdomFile(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		if os.IsNotExist(err) {
			c.Wisdom() // still attach, so planning starts accumulating
			return nil
		}
		return err
	}
	return c.Wisdom().Import(string(data))
}

// SaveWisdomFile writes the attached store's serialized form (schema v2) to
// path, creating or truncating it.
func (c *Cache) SaveWisdomFile(path string) error {
	return os.WriteFile(path, []byte(c.Wisdom().Export()), 0o644)
}

// defaultCache is the process-wide cache behind Acquire/Release.
var defaultCache Cache

// DefaultCache returns the process-wide plan cache.
func DefaultCache() *Cache { return &defaultCache }

// Cacheable constrains Acquire's type parameter to the plan types the cache
// can vend. (The remaining families compose these two: DCT and STFT plans
// wrap a cached complex or real plan internally when built through the
// server, and carry too many shape parameters — count, rows, frame, hop —
// for a single size-keyed surface.)
type Cacheable interface {
	*Plan | *RealPlan
}

// Acquire checks the shared plan of type T for size n out of the process-
// wide cache, planning it on first use — the checkout half of the cache's
// lease-style surface, mirroring Plan.Buffers at the plan level:
//
//	p, err := spiralfft.Acquire[*spiralfft.Plan](4096, nil)
//	if err != nil { ... }
//	defer spiralfft.Release(p)
//
// Concurrent Acquires of one fingerprint share a single build and return
// the identical plan. Every successful Acquire must be balanced by exactly
// one Release (Release(p) and p.Close() are equivalent; use whichever reads
// better at the call site, but only one of them, once).
func Acquire[T Cacheable](n int, o *Options) (T, error) {
	return AcquireFrom[T](&defaultCache, n, o)
}

// AcquireFrom is Acquire against an explicit cache instead of the
// process-wide one.
func AcquireFrom[T Cacheable](c *Cache, n int, o *Options) (T, error) {
	var zero T
	switch any(zero).(type) {
	case *Plan:
		p, err := c.Plan(n, o)
		if err != nil {
			return zero, err
		}
		return any(p).(T), nil
	default: // *RealPlan — the only other type Cacheable admits
		p, err := c.RealPlan(n, o)
		if err != nil {
			return zero, err
		}
		return any(p).(T), nil
	}
}

// Release returns one cache reference taken by Acquire/AcquireFrom. The
// plan is destroyed only when the cache and every other holder have
// released it. Releasing a nil plan is a no-op.
func Release[T Cacheable](p T) {
	var zero T
	if p == zero {
		return
	}
	any(p).(interface{ Close() }).Close()
}
