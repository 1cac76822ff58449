package spiralfft

import (
	"strings"
	"testing"
	"time"

	"spiralfft/internal/complexvec"
	"spiralfft/internal/exec"
	"spiralfft/internal/search"
)

func TestWisdomExportImportRoundtrip(t *testing.T) {
	w := NewWisdom()
	if err := w.Import("256 (64 x 4)\n1024 (64 x 16)\n"); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 {
		t.Fatalf("Len = %d", w.Len())
	}
	out := w.Export()
	w2 := NewWisdom()
	if err := w2.Import(out); err != nil {
		t.Fatal(err)
	}
	if w2.Export() != out {
		t.Errorf("roundtrip mismatch:\n%q\n%q", out, w2.Export())
	}
	// Versioned header, then sizes sorted ascending.
	if !strings.HasPrefix(out, "#%spiralfft-wisdom v2\n#%host ") {
		t.Errorf("export missing v2 header: %q", out)
	}
	i256 := strings.Index(out, "dft n=256 ")
	i1024 := strings.Index(out, "dft n=1024 ")
	if i256 < 0 || i1024 < 0 || i256 > i1024 {
		t.Errorf("export not sorted: %q", out)
	}
}

func TestWisdomImportErrors(t *testing.T) {
	cases := []string{
		"256",          // missing tree
		"abc (8 x 2)",  // bad size
		"256 (64 x 5)", // tree size 320 != 256
		"16 (8 x",      // malformed tree
		"0 (2 x 2)",    // bad size value
	}
	for _, c := range cases {
		if err := NewWisdom().Import(c); err == nil {
			t.Errorf("Import(%q) accepted", c)
		}
	}
	// Comments and blank lines are fine.
	w := NewWisdom()
	if err := w.Import("# comment\n\n64 (8 x 8)\n"); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 1 {
		t.Errorf("Len = %d", w.Len())
	}
}

// TestWisdomImportAtomic checks the all-or-nothing contract: a file whose
// tail is malformed must leave the store exactly as it was — no
// half-imported prefix, no displaced resident entries.
func TestWisdomImportAtomic(t *testing.T) {
	w := NewWisdom()
	if err := w.Import("64 (8 x 8) @ 10µs\n"); err != nil {
		t.Fatal(err)
	}
	before := w.Export()
	// Two valid lines (one of which would displace the resident 64-entry)
	// followed by a malformed one.
	bad := "64 (4 x 16) @ 1µs\n256 (64 x 4)\n16 (8 x\n"
	if err := w.Import(bad); err == nil {
		t.Fatal("malformed import accepted")
	}
	if w.Len() != 1 {
		t.Fatalf("failed import mutated the store: Len = %d, want 1", w.Len())
	}
	if got := w.Export(); got != before {
		t.Errorf("failed import mutated the store:\nbefore %q\nafter  %q", before, got)
	}
	// The same lines without the malformed tail import fully.
	if err := w.Import("64 (4 x 16) @ 1µs\n256 (64 x 4)\n"); err != nil {
		t.Fatal(err)
	}
	if w.Len() != 2 {
		t.Errorf("Len = %d, want 2", w.Len())
	}
	if !strings.Contains(w.Export(), "64 (4 x 16) @ 1µs") {
		t.Errorf("cheaper entry did not displace resident: %q", w.Export())
	}
}

func TestWisdomGuidesPlanning(t *testing.T) {
	// Plant a deliberately recognizable tree and check the plan adopts it.
	w := NewWisdom()
	if err := w.Import("256 (4 x (4 x 16))\n"); err != nil {
		t.Fatal(err)
	}
	p, err := NewPlan(256, &Options{Wisdom: w})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Tree() != "(4 x (4 x 16))" {
		t.Errorf("plan ignored wisdom: %s", p.Tree())
	}
	// And the plan still computes the DFT.
	x := complexvec.Random(256, 3)
	got := make([]complex128, 256)
	if err := p.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	if e := complexvec.RelError(got, refDFT(x)); e > tol {
		t.Errorf("wisdom-guided plan wrong by %g", e)
	}
}

func TestWisdomRecordsPlannedTrees(t *testing.T) {
	w := NewWisdom()
	p, err := NewPlan(512, &Options{Workers: 2, Wisdom: w})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	// The plan records the two parallel subtree sizes. The fixed planner
	// never computes a sequential tree for n itself, so none is recorded.
	if w.Len() < 3 {
		t.Errorf("wisdom recorded %d entries, want ≥ 3:\n%s", w.Len(), w.Export())
	}
	m, k := p.Split()
	exported := w.Export()
	for _, n := range []int{m, k} {
		if _, ok := w.lookup(n); !ok {
			t.Errorf("wisdom missing size %d:\n%s", n, exported)
		}
	}
	if _, ok := w.Lookup(512, 1); ok {
		t.Errorf("parallel fixed plan recorded a sequential tree for n=512:\n%s", exported)
	}
	// The whole parallel factorization is stored under the (n, p) slot, so a
	// later plan can adopt it without re-running the split search.
	tr, ok := w.LookupKey(WisdomKey{N: 512, P: 2})
	if !ok || tr.Leaf {
		t.Fatalf("wisdom missing parallel composite (n=512, p=2):\n%s", exported)
	}
	if tr.M() != m {
		t.Errorf("composite split %d, plan used %d", tr.M(), m)
	}
	p2, err := NewPlan(512, &Options{Workers: 2, Wisdom: w})
	if err != nil {
		t.Fatal(err)
	}
	defer p2.Close()
	if m2, k2 := p2.Split(); m2 != m || k2 != k {
		t.Errorf("second plan did not adopt composite wisdom: split %dx%d, want %dx%d", m2, k2, m, k)
	}
	// The measuring planner does compute the sequential tree of n (it times
	// it against the splits), and records it under (n, 1).
	wm := NewWisdom()
	pm, err := NewPlan(512, &Options{Workers: 2, Planner: PlannerMeasure, Wisdom: wm})
	if err != nil {
		t.Fatal(err)
	}
	defer pm.Close()
	if _, ok := wm.Lookup(512, 1); !ok {
		t.Errorf("measured plan did not record the sequential tree it timed:\n%s", wm.Export())
	}
}

// TestWisdomParallelKeyDoesNotClobberSequential pins the keying fix: a tree
// recorded for a p-worker plan lives in its own slot and the sequential entry
// of the same size survives (pre-v2, both landed on the bare size key).
func TestWisdomParallelKeyDoesNotClobberSequential(t *testing.T) {
	w := NewWisdom()
	w.record(mustTree(t, "(8 x 8)"), 10*time.Microsecond)
	w.Record(WisdomKey{N: 64, P: 8}, mustTree(t, "(2 x 32)"), 2*time.Microsecond)
	if tr, _ := w.Lookup(64, 1); tr == nil || tr.String() != "(8 x 8)" {
		t.Errorf("parallel record clobbered sequential slot: %v", tr)
	}
	if tr, _ := w.Lookup(64, 8); tr == nil || tr.String() != "(2 x 32)" {
		t.Errorf("parallel slot missing: %v", tr)
	}
	if w.Len() != 2 {
		t.Errorf("Len = %d, want 2", w.Len())
	}
	// Both survive an export/import round-trip with their keys intact.
	w2 := NewWisdom()
	if err := w2.Import(w.Export()); err != nil {
		t.Fatal(err)
	}
	if tr, _ := w2.Lookup(64, 8); tr == nil || tr.String() != "(2 x 32)" {
		t.Errorf("parallel key lost in round-trip: %v\n%s", tr, w.Export())
	}
	if tr, _ := w2.Lookup(64, 1); tr == nil || tr.String() != "(8 x 8)" {
		t.Errorf("sequential key lost in round-trip: %v\n%s", tr, w.Export())
	}
}

// TestWisdomHostFingerprintRoundTrip: locally recorded entries carry this
// host's fingerprint and keep it through Export/Import, including through a
// foreign store that merely relays the blob.
func TestWisdomHostFingerprintRoundTrip(t *testing.T) {
	w := NewWisdom()
	w.record(mustTree(t, "(8 x 8)"), 10*time.Microsecond)
	fp := w.Fingerprint()
	if fp == "" {
		t.Fatal("empty host fingerprint")
	}
	out := w.Export()
	if !strings.Contains(out, "host="+fp) {
		t.Fatalf("export missing host attribute:\n%s", out)
	}
	relay := &Wisdom{host: "relay/other/9cpu", trees: map[WisdomKey]wisdomEntry{}}
	if err := relay.Import(out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(relay.Export(), "host="+fp) {
		t.Errorf("fingerprint lost through foreign relay:\n%s", relay.Export())
	}
}

// TestWisdomHostAwareMerge: between entries measured on different known
// hosts, the one matching this store's host wins regardless of cost.
func TestWisdomHostAwareMerge(t *testing.T) {
	w := NewWisdom()
	fp := w.Fingerprint()
	// A resident entry measured here...
	if err := w.Import("dft n=64 host=" + fp + " (8 x 8) @ 10µs\n"); err != nil {
		t.Fatal(err)
	}
	// ...is not displaced by a faster measurement from another machine.
	if err := w.Import("dft n=64 host=elsewhere/arm64/64cpu (2 x 32) @ 1µs\n"); err != nil {
		t.Fatal(err)
	}
	if tr, _ := w.lookup(64); tr.String() != "(8 x 8)" {
		t.Errorf("foreign entry displaced local measurement: %s", tr)
	}
	// The reverse direction: a local entry displaces a faster foreign one.
	if err := w.Import("dft n=256 host=elsewhere/arm64/64cpu (4 x 64) @ 1µs\n"); err != nil {
		t.Fatal(err)
	}
	if err := w.Import("dft n=256 host=" + fp + " (16 x 16) @ 20µs\n"); err != nil {
		t.Fatal(err)
	}
	if tr, _ := w.lookup(256); tr.String() != "(16 x 16)" {
		t.Errorf("local entry lost to foreign one: %s", tr)
	}
	// Two foreign hosts fall back to the cost rule.
	if err := w.Import("dft n=128 host=hostA/amd64/4cpu (2 x 64) @ 9µs\n" +
		"dft n=128 host=hostB/amd64/8cpu (8 x 16) @ 3µs\n"); err != nil {
		t.Fatal(err)
	}
	if tr, _ := w.lookup(128); tr.String() != "(8 x 16)" {
		t.Errorf("cheaper foreign entry lost: %s", tr)
	}
}

func TestWisdomSchemaDirectives(t *testing.T) {
	// v1 and v2 version directives are accepted; later schemas are rejected.
	for _, ok := range []string{
		"#%spiralfft-wisdom v1\n64 (8 x 8)\n",
		"#%spiralfft-wisdom v2\ndft n=64 (8 x 8)\n",
		"#%host somewhere/amd64/4cpu\n64 (8 x 8)\n",  // header host is informational
		"#%future-directive with args\n64 (8 x 8)\n", // unknown directives ignored
	} {
		if err := NewWisdom().Import(ok); err != nil {
			t.Errorf("Import(%q): %v", ok, err)
		}
	}
	for _, bad := range []string{
		"#%spiralfft-wisdom v3\ndft n=64 (8 x 8)\n",
		"#%spiralfft-wisdom\n",
		"dft (8 x 8)\n",              // missing n=
		"dft n=64 p=0 (8 x 8)\n",     // bad attribute value
		"dft n=64 host= (8 x 8)\n",   // empty host
		"dft n=64 vers=2 (8 x 8)\n",  // unknown attribute
		"DFT n=64 (8 x 8)\n",         // bad family
		"dft n=64 cut=-1 (8 x 8)\n",  // bad cutoff
		"dft n=128 (8 x 8) @ 10µs\n", // size mismatch
	} {
		if err := NewWisdom().Import(bad); err == nil {
			t.Errorf("Import(%q) accepted", bad)
		}
	}
}

// TestWisdomCutoffKeys: capped-search results store alongside the uncapped
// slot, and Lookup falls back to the cheapest capped entry when no uncapped
// tree is stored.
func TestWisdomCutoffKeys(t *testing.T) {
	w := NewWisdom()
	w.Record(WisdomKey{N: 64, Cutoff: 8}, mustTree(t, "(8 x 8)"), 10*time.Microsecond)
	w.Record(WisdomKey{N: 64, Cutoff: 4}, mustTree(t, "(4 x (4 x 4))"), 4*time.Microsecond)
	if tr, ok := w.Lookup(64, 1); !ok || tr.String() != "(4 x (4 x 4))" {
		t.Errorf("Lookup did not pick cheapest capped entry: %v", tr)
	}
	// An uncapped entry takes precedence even when slower.
	w.record(mustTree(t, "(2 x 32)"), 20*time.Microsecond)
	if tr, ok := w.Lookup(64, 1); !ok || tr.String() != "(2 x 32)" {
		t.Errorf("uncapped slot did not take precedence: %v", tr)
	}
	out := w.Export()
	if !strings.Contains(out, "cut=8") || !strings.Contains(out, "cut=4") {
		t.Errorf("cutoff attributes missing from export:\n%s", out)
	}
}

func mustTree(t *testing.T, s string) *exec.Tree {
	t.Helper()
	tr, err := exec.ParseTree(s)
	if err != nil {
		t.Fatal(err)
	}
	return tr
}

func TestWisdomRecordKeepsCheaper(t *testing.T) {
	w := NewWisdom()
	w.record(mustTree(t, "(8 x 8)"), 100*time.Microsecond)
	// A slower measurement must not displace the resident tree.
	w.record(mustTree(t, "(4 x 16)"), 200*time.Microsecond)
	if tr, _ := w.lookup(64); tr.String() != "(8 x 8)" {
		t.Errorf("slower tree displaced cheaper one: %s", tr)
	}
	// A faster measurement must.
	w.record(mustTree(t, "(2 x 32)"), 50*time.Microsecond)
	if tr, _ := w.lookup(64); tr.String() != "(2 x 32)" {
		t.Errorf("faster tree did not win: %s", tr)
	}
	// An unmeasured record (cost 0) never displaces a measured entry.
	w.record(mustTree(t, "(16 x 4)"), 0)
	if tr, _ := w.lookup(64); tr.String() != "(2 x 32)" {
		t.Errorf("unmeasured tree displaced measured one: %s", tr)
	}
	// But an unmeasured record does fill an empty slot.
	w.record(mustTree(t, "(16 x 16)"), 0)
	if tr, ok := w.lookup(256); !ok || tr.String() != "(16 x 16)" {
		t.Error("unmeasured record did not fill empty slot")
	}
}

func TestWisdomExportCarriesCost(t *testing.T) {
	w := NewWisdom()
	w.record(mustTree(t, "(8 x 8)"), 12500*time.Nanosecond)
	w.record(mustTree(t, "(16 x 16)"), 0)
	out := w.Export()
	fp := w.Fingerprint()
	if !strings.Contains(out, "dft n=64 host="+fp+" (8 x 8) @ 12.5µs") {
		t.Errorf("export missing cost annotation:\n%s", out)
	}
	if !strings.Contains(out, "dft n=256 host="+fp+" (16 x 16)\n") {
		t.Errorf("costless entry must export without an @ suffix:\n%s", out)
	}
	// Roundtrip preserves costs (so re-imported wisdom still merges by cost).
	w2 := NewWisdom()
	if err := w2.Import(out); err != nil {
		t.Fatal(err)
	}
	if w2.Export() != out {
		t.Errorf("cost roundtrip mismatch:\n%q\n%q", out, w2.Export())
	}
}

func TestWisdomImportMergesByCost(t *testing.T) {
	w := NewWisdom()
	if err := w.Import("64 (8 x 8) @ 10µs\n"); err != nil {
		t.Fatal(err)
	}
	// A more expensive import loses.
	if err := w.Import("64 (4 x 16) @ 20µs\n"); err != nil {
		t.Fatal(err)
	}
	if tr, _ := w.lookup(64); tr.String() != "(8 x 8)" {
		t.Errorf("more expensive import won: %s", tr)
	}
	// A cheaper import wins.
	if err := w.Import("64 (2 x 32) @ 5µs\n"); err != nil {
		t.Fatal(err)
	}
	if tr, _ := w.lookup(64); tr.String() != "(2 x 32)" {
		t.Errorf("cheaper import lost: %s", tr)
	}
	// A costless (legacy) import does not displace a measured entry...
	if err := w.Import("64 (16 x 4)\n"); err != nil {
		t.Fatal(err)
	}
	if tr, _ := w.lookup(64); tr.String() != "(2 x 32)" {
		t.Errorf("legacy import displaced measured entry: %s", tr)
	}
	// ...but does override a costless one (imported wisdom is presumed tuned).
	if err := w.Import("256 (16 x 16)\n"); err != nil {
		t.Fatal(err)
	}
	if err := w.Import("256 (4 x 64)\n"); err != nil {
		t.Fatal(err)
	}
	if tr, _ := w.lookup(256); tr.String() != "(4 x 64)" {
		t.Errorf("legacy import did not override costless entry: %s", tr)
	}
	// Malformed costs are rejected.
	if err := NewWisdom().Import("64 (8 x 8) @ fast\n"); err == nil {
		t.Error("bad cost accepted")
	}
}

func TestWisdomMeasuredPlannerRecordsCosts(t *testing.T) {
	if testing.Short() {
		t.Skip("measured planning")
	}
	w := NewWisdom()
	p, err := NewPlan(256, &Options{Planner: PlannerMeasure, Wisdom: w})
	if err != nil {
		t.Fatal(err)
	}
	p.Close()
	if !strings.Contains(w.Export(), " @ ") {
		t.Errorf("measured planner exported no costs:\n%s", w.Export())
	}
}

func TestWisdomRecordKeepsFirst(t *testing.T) {
	w := NewWisdom()
	if err := w.Import("64 (8 x 8)\n"); err != nil {
		t.Fatal(err)
	}
	// Planning 64 must not overwrite the imported entry.
	p, err := NewPlan(64, &Options{Wisdom: w})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	tr, _ := w.lookup(64)
	if tr.String() != "(8 x 8)" {
		t.Errorf("record overwrote imported wisdom: %s", tr.String())
	}
	if p.Tree() != "(8 x 8)" {
		t.Errorf("plan did not use imported wisdom: %s", p.Tree())
	}
}

// TestCutoffRoundTripsThroughWisdom pins the acceptance contract of the
// tuner's base-case-cutoff search: the winning capped tree persists through
// wisdom export/import unchanged, and a plan built from the re-imported
// wisdom bottoms out exactly where the tuner measured it should.
func TestCutoffRoundTripsThroughWisdom(t *testing.T) {
	tu := search.NewTuner(search.StrategyDP)
	tu.Timer = search.TimerConfig{MinTime: 20 * time.Microsecond, Repeats: 1}
	cut := tu.BestCutoff(512)
	if cut.Tree == nil || cut.Tree.N != 512 {
		t.Fatalf("BestCutoff(512) = %+v", cut)
	}
	w := NewWisdom()
	w.record(cut.Tree, cut.Time)
	w2 := NewWisdom()
	if err := w2.Import(w.Export()); err != nil {
		t.Fatal(err)
	}
	tr, ok := w2.lookup(512)
	if !ok || tr.String() != cut.Tree.String() {
		t.Fatalf("cutoff tree did not round-trip: got %v, want %s", tr, cut.Tree)
	}
	p, err := NewPlan(512, &Options{Wisdom: w2})
	if err != nil {
		t.Fatal(err)
	}
	defer p.Close()
	if p.Tree() != cut.Tree.String() {
		t.Errorf("plan tree %s, tuner chose %s", p.Tree(), cut.Tree)
	}
	x := complexvec.Random(512, 9)
	got := make([]complex128, 512)
	if err := p.Forward(got, x); err != nil {
		t.Fatal(err)
	}
	if e := complexvec.RelError(got, refDFT(x)); e > tol {
		t.Errorf("cutoff-wisdom plan wrong by %g", e)
	}
}
