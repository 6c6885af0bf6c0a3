package pointsto

import (
	"testing"

	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/workload"
)

// pinnedStats are the solver counts a change to the solver's memory layout
// must leave untouched: they fix the visit order, not just the fixpoint.
type pinnedStats struct {
	Nodes, Iterations, DerivedEdges, BitsPropagated   int
	SCCPasses, PrepMerged, HCDCollapses, LCDCollapses int
}

// TestScaledStatsPinned pins the exact default-configuration counts of the
// scaled workload (seed 1) under the fallback and the full optimistic
// configuration. The fixpoint alone is covered by the differential tests;
// these counts also catch a change that reorders edges, nodes or the
// worklist, which the benchmark's per-layer counts would otherwise be the
// first to show.
func TestScaledStatsPinned(t *testing.T) {
	cases := []struct {
		units int
		cfg   invariant.Config
		want  pinnedStats
	}{
		{units: 100, cfg: invariant.Config{}, want: pinnedStats{Nodes: 3001, Iterations: 5127, DerivedEdges: 2607, BitsPropagated: 37512, SCCPasses: 1, PrepMerged: 125, HCDCollapses: 1148, LCDCollapses: 300}},
		{units: 100, cfg: invariant.All(), want: pinnedStats{Nodes: 3014, Iterations: 5424, DerivedEdges: 2616, BitsPropagated: 37525, SCCPasses: 1, PrepMerged: 125, HCDCollapses: 1148, LCDCollapses: 300}},
		{units: 400, cfg: invariant.Config{}, want: pinnedStats{Nodes: 11833, Iterations: 50069, DerivedEdges: 25259, BitsPropagated: 509662, SCCPasses: 1, PrepMerged: 524, HCDCollapses: 4600, LCDCollapses: 1200}},
		{units: 400, cfg: invariant.All(), want: pinnedStats{Nodes: 11883, Iterations: 51668, DerivedEdges: 25305, BitsPropagated: 509712, SCCPasses: 1, PrepMerged: 524, HCDCollapses: 4600, LCDCollapses: 1200}},
	}
	for _, tc := range cases {
		m, err := minic.Compile("scaled", workload.ScaledProgram(1, tc.units))
		if err != nil {
			t.Fatal(err)
		}
		r := New(m, tc.cfg).Solve()
		s := r.Stats()
		got := pinnedStats{
			Nodes: r.NodeCount(), Iterations: s.Iterations, DerivedEdges: s.DerivedEdges,
			BitsPropagated: s.BitsPropagated, SCCPasses: s.SCCPasses, PrepMerged: s.PrepMerged,
			HCDCollapses: s.HCDCollapses, LCDCollapses: s.LCDCollapses,
		}
		if got != tc.want {
			t.Errorf("scaled-%d %s:\n got %+v\nwant %+v", tc.units, tc.cfg.Name(), got, tc.want)
		}
	}
}

// TestNodeArraysSizedOnce checks that build sizes the per-node arrays once:
// the scaled workload's indirect callsites create parameter nodes while
// solving, and those must land in the capacity reserved for them instead of
// reallocating the arrays.
func TestNodeArraysSizedOnce(t *testing.T) {
	for _, cfg := range []invariant.Config{{}, invariant.All()} {
		m, err := minic.Compile("scaled", workload.ScaledProgram(1, 100))
		if err != nil {
			t.Fatal(err)
		}
		a := New(m, cfg)
		built, reps, copies := len(a.nodes), &a.rep[0], &a.copyTo[0]
		a.Solve()
		if len(a.nodes) == built {
			t.Fatalf("%s: no node was created while solving; the test no longer covers late nodes", cfg.Name())
		}
		if &a.rep[0] != reps || &a.copyTo[0] != copies {
			t.Errorf("%s: per-node arrays were reallocated while solving (%d nodes after build, %d after)", cfg.Name(), built, len(a.nodes))
		}
		if cap(a.nodes) != len(a.nodes) {
			t.Errorf("%s: %d nodes, capacity %d: every reserved late node is created on this workload", cfg.Name(), len(a.nodes), cap(a.nodes))
		}
	}
}
