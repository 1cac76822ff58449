package codelet

import (
	"fmt"
	"sort"
	"sync"
)

// The registry is the single source of truth for which codelet serves each
// size: ForSize, Sizes, HasUnrolled, MaxUnrolled, and Best all derive from
// it, so a generated kernel can never drift out of sync with the advertised
// size list. Registration happens in package init functions; lookups after
// init are read-mostly and cheap.
var reg = struct {
	sync.RWMutex
	kernels map[int]Kernel
	sizes   []int // ascending; rebuilt lazily after Register
	max     int
}{
	kernels: make(map[int]Kernel),
}

// Register installs k as the codelet for size k.N. Each size has exactly
// one codelet: registering a second one for a size panics.
func Register(k Kernel) {
	if k.N < 1 || k.Apply == nil {
		panic(fmt.Sprintf("codelet: Register(%q) with N=%d, Apply=%v", k.Name, k.N, k.Apply))
	}
	reg.Lock()
	defer reg.Unlock()
	if old, ok := reg.kernels[k.N]; ok {
		panic(fmt.Sprintf("codelet: Register(%q): size %d already served by %q", k.Name, k.N, old.Name))
	}
	reg.kernels[k.N] = k
	reg.sizes = nil // rebuilt on next Sizes call
	if k.N > reg.max {
		reg.max = k.N
	}
}

// ForSize returns the registered codelet for n, if one exists.
func ForSize(n int) (Kernel, bool) {
	reg.RLock()
	k, ok := reg.kernels[n]
	reg.RUnlock()
	return k, ok
}

// Sizes lists the sizes with registered codelets, ascending. The returned
// slice is shared; callers must not modify it.
func Sizes() []int {
	reg.RLock()
	s := reg.sizes
	reg.RUnlock()
	if s != nil {
		return s
	}
	reg.Lock()
	defer reg.Unlock()
	if reg.sizes == nil {
		reg.sizes = make([]int, 0, len(reg.kernels))
		for n := range reg.kernels {
			reg.sizes = append(reg.sizes, n)
		}
		sort.Ints(reg.sizes)
	}
	return reg.sizes
}

// HasUnrolled reports whether a registered codelet exists for n.
func HasUnrolled(n int) bool {
	_, ok := ForSize(n)
	return ok
}

// MaxUnrolled returns the largest registered codelet size. Plans never need
// codelets above this size: larger DFTs are factored.
func MaxUnrolled() int {
	reg.RLock()
	defer reg.RUnlock()
	return reg.max
}

// All returns every registered kernel, ascending by size. Used by the
// validation and fuzz suites to cover the whole registry.
func All() []Kernel {
	sizes := Sizes()
	out := make([]Kernel, 0, len(sizes))
	reg.RLock()
	defer reg.RUnlock()
	for _, n := range sizes {
		out = append(out, reg.kernels[n])
	}
	return out
}
