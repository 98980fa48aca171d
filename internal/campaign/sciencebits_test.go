package campaign

import (
	"crypto/sha256"
	"encoding/binary"
	"fmt"
	"hash"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"

	"impeccable/internal/esmacs"
)

// scienceBitsGolden holds one SHA-256 per section of goldenConfig()'s
// science, plus one over all sections, computed at the commit that
// introduced it. Exact bits are the point: TestGoldenFunnelAcrossPaths
// only compares execution paths with each other, and the harness golden
// keeps counts and top IDs, so neither notices a one-ulp drift in S2.
const scienceBitsGolden = "testdata/science-bits.golden"

// scienceSections hashes each part of a result whose bits a
// performance change must not move. Every float is hashed by its bit
// pattern and every list by its length first, so a reordering, a
// dropped element and a one-ulp change all alter the digest.
func scienceSections(res *Result) [][2]string {
	var out [][2]string
	section := func(name string, fill func(w *bitWriter)) {
		w := &bitWriter{h: sha256.New()}
		fill(w)
		out = append(out, [2]string{name, fmt.Sprintf("%x", w.h.Sum(nil))})
	}
	section("dock", func(w *bitWriter) {
		w.n(len(res.DockResults))
		for _, r := range res.DockResults {
			w.u(r.MolID)
			w.f(r.Score)
		}
	})
	estimates := func(name string, ests []esmacs.Estimate) {
		section(name, func(w *bitWriter) {
			w.n(len(ests))
			for _, e := range ests {
				w.u(e.MolID)
				w.f(e.DeltaG)
				w.fs(e.ReplicaDGs)
			}
		})
	}
	estimates("cg", res.CGEstimates)
	estimates("fg", res.FGEstimates)
	s2 := res.S2Report
	section("s2-history", func(w *bitWriter) {
		w.n(len(s2.History))
		for _, l := range s2.History {
			w.f(l.Recon)
			w.f(l.Critic)
			w.f(l.Adv)
		}
		w.f(s2.ValRecon)
	})
	section("s2-embeddings", func(w *bitWriter) {
		w.n(len(s2.Embeddings))
		for _, row := range s2.Embeddings {
			w.fs(row)
		}
	})
	section("s2-lof", func(w *bitWriter) { w.fs(s2.LOF) })
	section("s2-selections", func(w *bitWriter) {
		w.n(len(s2.Selections))
		for _, sel := range s2.Selections {
			r := sel.Ref
			w.u(r.MolID)
			w.n(r.Replica)
			w.n(r.Frame)
			w.f(r.RMSD)
			w.n(r.Contacts)
			w.f(r.Inter)
			w.f(sel.LOFScore)
		}
	})
	section("top", func(w *bitWriter) {
		w.n(len(res.Top))
		for _, tc := range res.Top {
			w.u(tc.MolID)
			w.f(tc.CG)
			w.f(tc.FG)
			w.f(tc.CGErr)
			w.f(tc.FGErr)
			w.f(tc.Truth)
		}
	})
	all := sha256.New()
	for _, s := range out {
		fmt.Fprintf(all, "%s %s\n", s[0], s[1])
	}
	return append(out, [2]string{"all", fmt.Sprintf("%x", all.Sum(nil))})
}

// bitWriter feeds little-endian integers and float bit patterns into a
// hash.
type bitWriter struct {
	h   hash.Hash
	buf [8]byte
}

func (w *bitWriter) u(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.h.Write(w.buf[:])
}
func (w *bitWriter) n(v int)     { w.u(uint64(int64(v))) }
func (w *bitWriter) f(v float64) { w.u(math.Float64bits(v)) }
func (w *bitWriter) fs(vs []float64) {
	w.n(len(vs))
	for _, v := range vs {
		w.f(v)
	}
}

func formatSections(secs [][2]string) string {
	var b strings.Builder
	for _, s := range secs {
		fmt.Fprintf(&b, "%s %s\n", s[0], s[1])
	}
	return b.String()
}

// TestScienceBits recomputes goldenConfig()'s science digest at
// GOMAXPROCS 1, 2, 3 and 8 and compares it with the committed golden.
// Kernel fan-out and S2's lane count depend on GOMAXPROCS (three lanes
// leave a ragged round of chunks), so the four runs also pin that no
// parallel path reorders a floating-point sum. A mismatch names the
// sections that moved; regenerating the golden is a science change,
// never a performance change. It runs under -short (four small
// campaigns) but not under the race detector, where the same four take
// minutes and the kernels' and lanes' fan-out is raced by the nn and
// aae packages' own tests.
func TestScienceBits(t *testing.T) {
	if raceEnabled {
		t.Skip("three campaigns are too slow under the race detector")
	}
	want, err := os.ReadFile(scienceBitsGolden)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range []int{1, 2, 3, 8} {
		prev := runtime.GOMAXPROCS(p)
		res, err := Run(goldenConfig())
		runtime.GOMAXPROCS(prev)
		if err != nil {
			t.Fatal(err)
		}
		got := formatSections(scienceSections(res))
		if got == string(want) {
			continue
		}
		wantLines := strings.Split(string(want), "\n")
		for i, line := range strings.Split(got, "\n") {
			if i >= len(wantLines) || line != wantLines[i] {
				t.Errorf("GOMAXPROCS=%d: science bits moved: %q", p, line)
			}
		}
		t.Logf("GOMAXPROCS=%d digest:\n%s", p, got)
	}
}
