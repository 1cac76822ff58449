package codegen

import (
	"bytes"
	"fmt"
	"go/format"
	"os"
	"regexp"
	"strings"
	"testing"
)

// The committed generated files, Go and assembly, split-radix and WHT, must
// match the generator byte for byte, so a generator change without `go
// generate ./internal/codelet` fails CI.
func TestSplitRadixFileUpToDate(t *testing.T) {
	files, _, err := CodeletFiles()
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		got, err := os.ReadFile("../codelet/" + f.Name)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, f.Data) {
			t.Errorf("internal/codelet/%s is stale: run go generate ./internal/codelet", f.Name)
		}
	}
}

func TestSplitRadixStandaloneCompilesAsGo(t *testing.T) {
	for _, n := range SplitRadixStraight {
		for _, tw := range []bool{false, true} {
			src, err := SplitRadixStandalone(n, tw)
			if err != nil {
				t.Fatal(err)
			}
			// format.Source both validates syntax and confirms canonical form.
			formatted, err := format.Source(src)
			if err != nil {
				t.Fatalf("n=%d tw=%v: %v", n, tw, err)
			}
			if !bytes.Equal(src, formatted) {
				t.Errorf("n=%d tw=%v: standalone output not gofmt-canonical", n, tw)
			}
		}
	}
	if _, err := SplitRadixStandalone(128, false); err == nil {
		t.Error("composed size accepted by standalone generator")
	}
}

// srStmt is one parsed statement of an emitted straight-line body.
type srStmt struct {
	def   string   // value assigned, or "" for a store
	store string   // value stored, or "" for an assignment
	uses  []string // values read
	load  bool     // the assignment reads src
}

var srValue = regexp.MustCompile(`\bv[0-9]+\b`)

// parseSrBody splits an emitted body into statements.
func parseSrBody(t *testing.T, body string) []srStmt {
	t.Helper()
	var out []srStmt
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		line = strings.TrimSpace(line)
		if lhs, rhs, ok := strings.Cut(line, " := "); ok {
			out = append(out, srStmt{def: lhs, uses: srValue.FindAllString(rhs, -1), load: strings.Contains(rhs, "src[")})
		} else if lhs, rhs, ok := strings.Cut(line, " = "); ok && strings.HasPrefix(lhs, "dst[") {
			out = append(out, srStmt{store: rhs, uses: []string{rhs}})
		} else {
			t.Fatalf("unparsed statement %q", line)
		}
	}
	return out
}

// pressureArea is Σ max(0, live − regs) over the statements of a body, where
// live counts the values defined so far that a later statement still reads.
// With regs = 8 complex values (16 XMM registers) it estimates how much of
// the body runs with more live values than registers.
func pressureArea(body []srStmt, regs int) int {
	last := map[string]int{}
	for i, s := range body {
		for _, u := range s.uses {
			last[u] = i
		}
	}
	live, area := 0, 0
	for i, s := range body {
		for _, u := range s.uses {
			if last[u] == i {
				live--
				last[u] = -1 // a value read twice by one statement dies once
			}
		}
		if s.def != "" {
			live++
		}
		if live > regs {
			area += live - regs
		}
	}
	return area
}

// TestSplitRadixSchedule checks the register schedule of every emitted
// straight-line body: all loads come before the first store (so the kernels
// are safe in place), each load comes just before its first use, and each
// store right after the assignment of its value.
func TestSplitRadixSchedule(t *testing.T) {
	for _, n := range SplitRadixStraight {
		for _, tw := range []bool{false, true} {
			body := parseSrBody(t, srBody(n, tw))
			defAt := map[string]int{}
			firstUse := map[string]int{}
			lastLoad, firstStore, loads, stores := -1, len(body), 0, 0
			for i, s := range body {
				if s.def != "" {
					defAt[s.def] = i
				}
				for _, u := range s.uses {
					if _, ok := firstUse[u]; !ok {
						firstUse[u] = i
					}
				}
				switch {
				case s.load:
					lastLoad, loads = i, loads+1
				case s.store != "":
					stores++
					if i < firstStore {
						firstStore = i
					}
				}
			}
			if loads != n || stores != n {
				t.Fatalf("n=%d tw=%v: %d loads and %d stores", n, tw, loads, stores)
			}
			if firstStore < lastLoad {
				t.Errorf("n=%d tw=%v: store at %d precedes load at %d", n, tw, firstStore, lastLoad)
			}
			for i, s := range body {
				switch {
				case s.load:
					use, ok := firstUse[s.def]
					if !ok {
						t.Fatalf("n=%d tw=%v: load %s is never used", n, tw, s.def)
					}
					// Only other loads of the same first reader may sit between.
					for j := i + 1; j < use; j++ {
						if !body[j].load || firstUse[body[j].def] != use {
							t.Errorf("n=%d tw=%v: load %s at %d, first use at %d", n, tw, s.def, i, use)
							break
						}
					}
				case s.store != "":
					// Only other stores of the same value may sit between.
					for j := defAt[s.store] + 1; j < i; j++ {
						if body[j].store != s.store {
							t.Errorf("n=%d tw=%v: store of %s at %d, assigned at %d", n, tw, s.store, i, defAt[s.store])
							break
						}
					}
				}
			}
		}
	}
}

// TestSplitRadixRegisterPressure bounds the excess register pressure of each
// emitted body at 0.6 of the loads-first/stores-last order of the same
// statements.
func TestSplitRadixRegisterPressure(t *testing.T) {
	const regs = 8
	for _, n := range SplitRadixStraight {
		for _, tw := range []bool{false, true} {
			body := parseSrBody(t, srBody(n, tw))
			var loads, ops, stores []srStmt
			for _, s := range body {
				switch {
				case s.load:
					loads = append(loads, s)
				case s.store != "":
					stores = append(stores, s)
				default:
					ops = append(ops, s)
				}
			}
			naive := append(append(append([]srStmt(nil), loads...), ops...), stores...)
			got, base := pressureArea(body, regs), pressureArea(naive, regs)
			t.Logf("n=%d tw=%v: excess pressure area %d, loads-first/stores-last %d", n, tw, got, base)
			if 10*got > 6*base {
				t.Errorf("n=%d tw=%v: excess pressure area %d > 0.6 × %d", n, tw, got, base)
			}
		}
	}
}

// The amd64 backend's counts describe the text it emits at every width:
// one load per input and lane (two with the fused scale) at one and two
// lanes, one per input (two with the scale) at four adjacent lanes, and the
// same for stores; one instruction per counted line, a frame slot of one
// register's width per value it spilled at once, no multiply in any
// address, and no spills in sr8, whose live values fit the sixteen
// registers. With thirty-two registers the four-lane sr16 and sr32 spill
// no more than two values' worth of moves.
func TestSplitRadixAsmCounts(t *testing.T) {
	consts := newAsmConsts()
	for _, n := range SplitRadixStraight {
		for _, lanes := range []int{1, 2, 4} {
			for _, tw := range []bool{false, true} {
				text, st := asmBody(n, tw, lanes, consts)
				moves := n * lanes
				if lanes == 4 {
					moves = n
				}
				loads := moves
				if tw {
					loads *= 2
				}
				if st.Loads != loads || st.Stores != moves {
					t.Errorf("%s: %d loads and %d stores, want %d and %d", st.Name, st.Loads, st.Stores, loads, moves)
				}
				checkAsmCounts(t, text, st, lanes)
				if n == 8 && st.Spills != 0 {
					t.Errorf("%s spills %d values", st.Name, st.Spills)
				}
				if lanes == 4 && n <= 32 && st.Spills+st.Reloads > 4 {
					t.Errorf("%s makes %d spill moves in 32 registers", st.Name, st.Spills+st.Reloads)
				}
			}
		}
	}
}

// The loop kernel's text holds its three bodies and the loop around them:
// it ends its vector part in VZEROUPPER before the SSE2 tail, moves the
// quads' staged sides by 4×4 transposes and by VINSERTF64X2 and
// VEXTRACTF64X2, and keeps the stage out of its frame, which holds the
// spill slots and the loop state alone. The single call's TEXT comes
// first, its frame the one-lane body's spill slots.
func TestSplitRadixLoopKernel(t *testing.T) {
	consts := newAsmConsts()
	for _, n := range SplitRadixStraight {
		for _, tw := range []bool{false, true} {
			text, stats := asmLoopKernel(n, tw, consts)
			if len(stats) != 3 {
				t.Fatalf("n=%d tw=%v: %d bodies", n, tw, len(stats))
			}
			for _, want := range []string{"VZEROUPPER", "VSHUFF64X2", "VINSERTF64X2 $3", "VEXTRACTF64X2 $3", "JLT single", "\tRET"} {
				if !strings.Contains(text, want) {
					t.Errorf("n=%d tw=%v: no %q in the loop kernel", n, tw, want)
				}
			}
			flavor := "n"
			if tw {
				flavor = "w"
			}
			spill := max(stats[0].Frame, stats[1].Frame, stats[2].Frame)
			for _, head := range []string{
				fmt.Sprintf("TEXT ·sr%d%sSSE2(SB), $%d-", n, flavor, stats[0].Frame),
				fmt.Sprintf("TEXT ·sr%d%sLoop(SB), $%d-", n, flavor, spill+88),
			} {
				if !strings.Contains(text, head) {
					t.Errorf("n=%d tw=%v: no %q", n, tw, head)
				}
			}
		}
	}
}

// checkAsmCounts checks a kernel's counts against its text: one
// instruction per counted line, no multiply in any address, and a frame
// slot of lanes·16 bytes per value it spilled at once.
func checkAsmCounts(t *testing.T, text string, st AsmStats, lanes int) {
	t.Helper()
	var ins, spills, reloads, leas int
	for _, l := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		if !strings.HasPrefix(l, "\t") {
			continue
		}
		ins++
		switch {
		case strings.Contains(l, "MUL") && strings.Contains(l, "Q "):
			t.Errorf("%s: %q multiplies an address", st.Name, l)
		case strings.HasPrefix(l, "\tLEAQ "):
			leas++
		case strings.Contains(l, "MOVUPD X") || strings.Contains(l, "MOVUPD Y") || strings.Contains(l, "MOVUPD Z"):
			if strings.HasSuffix(l, "(SP)") {
				spills++
			}
		case strings.Contains(l, "(SP), "):
			reloads++
		}
	}
	if ins != st.Instructions || spills != st.Spills || reloads != st.Reloads || leas != st.Addrs {
		t.Errorf("%s: text has %d instructions, %d spills, %d reloads, %d LEAQs; counted %d, %d, %d, %d",
			st.Name, ins, spills, reloads, leas, st.Instructions, st.Spills, st.Reloads, st.Addrs)
	}
	if st.Reloads < st.Spills || st.Frame > 16*lanes*st.Spills {
		t.Errorf("%s: %d spills, %d reloads, %d-byte frame", st.Name, st.Spills, st.Reloads, st.Frame)
	}
}

// Every stride multiple an address of a run of up to 64 takes has a LEAQ
// recipe of at most four steps from the stride alone.
func TestLeaRecipes(t *testing.T) {
	for j := 1; j < 64; j++ {
		k, _ := scaled(j)
		if k == 1 {
			continue
		}
		steps := leaRecipe(map[int]string{1: "CX"}, k)
		if steps == nil {
			t.Fatalf("no recipe for %d", k)
		}
		v := 0
		for _, s := range steps {
			val := func(x int) int {
				if x < 0 {
					return v
				}
				return x
			}
			v = val(s.a) + val(s.b)*s.m
		}
		if v != k {
			t.Errorf("recipe for %d builds %d", k, v)
		}
	}
}
