package main

// solve-cold: batch analysis of never-seen programs. Each op compiles a
// fresh generated program, runs both analysis stages, and derives both CFI
// policies; the solver does most of the work, and serve, persist and the
// interpreter do none inside the timed region.

import (
	"context"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"time"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/minic"
	"repro/internal/pointsto"
	"repro/internal/workload"
)

// solveGrid is one block of program sizes, in generated units (about 30
// constraint nodes each per stage): 100..375 in steps of 25, and 400 three
// times. Solver cost grows faster than size, so the mix exposes algorithmic
// changes, not only constant factors. The largest size makes up a fifth of
// every block, so p90 falls in the middle of the 400-unit ops instead of on
// the edge between two sizes, where a few ops would decide it.
var solveGrid = []int{100, 125, 150, 175, 200, 225, 250, 275, 300, 325, 350, 375, 400, 400, 400}

const (
	// solveCountOps is how many leading ops the determinism check analyzes
	// a second time; their solver counts are the per-layer counts.
	solveCountOps = 6
	// cfi_targets_avg pools the policies of the first minOps ops, which
	// every run completes, so the value depends on the seed alone.
	solveCFIOps    = minOps
	solveSetupReps = 3
)

// solveInput is one never-seen program and the input stream it runs on.
type solveInput struct {
	name   string
	units  int
	src    string
	inputs []int64
}

// solveInputs yields a seed's program sequence. Sizes are stratified: each
// block of ops is a seeded permutation of solveGrid (all but its last
// size), so every run and every seed analyzes the same mix of sizes and
// only the programs differ. That keeps p50/p90 comparable across seeds.
type solveInputs struct {
	r     *rand.Rand
	block []int
}

func newSolveInputs(seed int64) *solveInputs { return &solveInputs{r: subRand(seed, 1)} }

func (g *solveInputs) next(op int) solveInput {
	if len(g.block) == 0 {
		// The last size stays last: a run ends on a block boundary, so the
		// System held when retained_mb is sampled has the same size (400
		// units) on every seed.
		g.block = append(g.block, solveGrid...)
		g.r.Shuffle(len(g.block)-1, func(i, j int) { g.block[i], g.block[j] = g.block[j], g.block[i] })
	}
	units := g.block[0]
	g.block = g.block[1:]
	return makeSolveInput(fmt.Sprintf("cold-%d", op), g.r.Int63(), units)
}

func makeSolveInput(name string, progSeed int64, units int) solveInput {
	r := rand.New(rand.NewSource(progSeed))
	inputs := make([]int64, 2*units) // each unit reads up to two inputs
	for i := range inputs {
		inputs[i] = r.Int63n(64)
	}
	return solveInput{name: name, units: units, src: workload.ScaledProgram(progSeed, units), inputs: inputs}
}

// solveOp is one op: compile, both analysis stages, both CFI policies. A
// traced op reaches the same result through the layers one by one, so each
// gets its own span; an untraced op (tr == nil) takes the one-call path a
// user would.
func solveOp(tr *tracer, op int, in solveInput) (*core.System, *core.Hardened, error) {
	ctx := context.Background()
	root := tr.start("op", op, -1)
	sp := tr.start("minic.compile", op, root)
	m, err := minic.Compile(in.name, in.src)
	tr.finish(sp, "")
	if err != nil {
		return nil, nil, err
	}
	var sys *core.System
	if tr == nil {
		sys, err = core.AnalyzeCtx(ctx, m, invariant.All(), core.AnalyzeOpts{})
	} else {
		sp = tr.start("pointsto.build", op, root)
		a := pointsto.New(m, invariant.Config{})
		tr.finish(sp, "")
		sp = tr.start("pointsto.solve", op, root)
		var fb *pointsto.Result
		fb, err = a.SolveCtx(ctx, pointsto.Budget{})
		tr.finish(sp, "")
		if err == nil {
			sp = tr.start("core.optimistic", op, root)
			sys, err = core.AnalyzeCtx(ctx, m, invariant.All(), core.AnalyzeOpts{Fallback: fb})
			tr.finish(sp, "")
		}
	}
	if err != nil {
		return nil, nil, err
	}
	sp = tr.start("cfi.policy", op, root)
	h := sys.Harden()
	tr.finish(sp, "")
	tr.finish(root, "")
	return sys, h, nil
}

// solveCheck runs the hardened program on its inputs with points-to
// tracking: the interpreter is the independent reference the analysis must
// cover.
func solveCheck(sys *core.System, h *core.Hardened, in solveInput) []string {
	bad := checkPolicies(h.Optimistic, h.Fallback)
	tr := h.NewExecution(true).Run("main", in.inputs)
	return append(bad, checkSoundness(sys.Fallback, tr)...)
}

// solveCounts are the exact solver counts of one op, summed over both
// stages, plus the optimistic policy's target count per callsite.
type solveCounts struct {
	Nodes, Pops, DerivedEdges, BitsPropagated         int
	SCCPasses, PrepMerged, HCDCollapses, LCDCollapses int
	Targets                                           []int
}

func countsOf(sys *core.System, h *core.Hardened) solveCounts {
	c := solveCounts{Targets: h.Optimistic.TargetCounts()}
	for _, r := range []*pointsto.Result{sys.Fallback, sys.Optimistic} {
		st := r.Stats()
		c.Nodes += r.NodeCount()
		c.Pops += st.Iterations
		c.DerivedEdges += st.DerivedEdges
		c.BitsPropagated += st.BitsPropagated
		c.SCCPasses += st.SCCPasses
		c.PrepMerged += st.PrepMerged
		c.HCDCollapses += st.HCDCollapses
		c.LCDCollapses += st.LCDCollapses
	}
	return c
}

func runSolveCold(cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	// Set-up: one warm-up op at each end of the size grid, so lazy
	// initialization and heap sizing are done before timing starts.
	_, setupS, err := timeSetup(cfg.clock, solveSetupReps, func() (struct{}, error) {
		for i, units := range []int{solveGrid[0], solveGrid[len(solveGrid)-1]} {
			in := makeSolveInput("warmup", subRand(cfg.seed, 2).Int63()+int64(i), units)
			if _, _, err := solveOp(nil, -1, in); err != nil {
				return struct{}{}, fmt.Errorf("warm-up: %w", err)
			}
		}
		return struct{}{}, nil
	})
	if err != nil {
		return nil, err
	}

	var tr *tracer
	if cfg.traced {
		tr = newTracer(cfg.clock)
		out.tracer = tr
	}
	gen := newSolveInputs(cfg.seed)
	var (
		lat, allocMB         []float64
		windows              []int  // each op's host-probe window
		tracedOps            []bool // which ops of a traced run ran traced
		busy                 time.Duration
		counts               []solveCounts
		cfiTargets, cfiSites int
		held                 *core.System // the last result a user holds
	)
	phase := time.Now()
	for op := 0; ; op++ {
		// A run ends on a block boundary, so it holds whole blocks and every
		// size the same number of times: p50 and p90 then sit in the middle
		// of one size's ops.
		done := busy >= cfg.seconds && op >= minOps && op%len(solveGrid) == 0
		if done || time.Since(phase) >= maxPhase {
			break
		}
		in := gen.next(op)
		opTr := tr
		if op%2 == 0 {
			opTr = nil // a traced run alternates traced and untraced ops
		}
		w := cfg.clock.window()
		a0, c0 := heapAllocs(), cpuTime()
		sys, h, err := solveOp(opTr, op, in)
		d, allocs := cpuTime()-c0, heapAllocs()-a0
		cfg.clock.count(d)
		out.attempted++
		if err != nil {
			out.failed++
			out.mismatch("op %d (%d units): %v", op, in.units, err)
			continue
		}
		busy += d
		lat = append(lat, ms(d))
		windows = append(windows, w)
		tracedOps = append(tracedOps, opTr != nil)
		allocMB = append(allocMB, float64(allocs)/mib)
		held = sys
		if bad := solveCheck(sys, h, in); len(bad) > 0 {
			out.failed++
			out.mismatch("op %d (%d units): %v", op, in.units, bad)
		}
		if op < solveCountOps {
			counts = append(counts, countsOf(sys, h))
		}
		if op < solveCFIOps {
			for _, n := range h.Optimistic.TargetCounts() {
				cfiTargets += n
				cfiSites++
			}
		}
	}
	cfg.clock.probe() // closes the last op's window
	// The live heap after the timed phase, with the System a user holds.
	retainedMB := liveHeapMB()
	runtime.KeepAlive(held)

	// Determinism: the leading ops analyzed again must give identical
	// counts and policies.
	again := newSolveInputs(cfg.seed)
	for op := range counts {
		in := again.next(op)
		sys, h, err := solveOp(nil, op, in)
		if err != nil {
			out.mismatch("determinism: op %d: %v", op, err)
			continue
		}
		if c := countsOf(sys, h); !reflect.DeepEqual(c, counts[op]) {
			out.mismatch("determinism: op %d counts differ between two analyses: %+v vs %+v", op, counts[op], c)
		}
	}

	m := out.metrics
	m["setup_s"] = setupS
	lat = cfg.clock.scaled(lat, windows)
	m["ops_per_s"] = sliceRate(lat, len(solveGrid))
	m["p50_ms"] = quantile(lat, 0.5)
	m["p90_ms"] = quantile(lat, 0.9)
	m["alloc_mb"] = mean(allocMB)
	m["retained_mb"] = retainedMB
	if cfiSites > 0 {
		m["cfi_targets_avg"] = float64(cfiTargets) / float64(cfiSites)
	}
	for _, c := range counts {
		m["pointsto.nodes"] += float64(c.Nodes)
		m["pointsto.pops"] += float64(c.Pops)
		m["pointsto.derived_edges"] += float64(c.DerivedEdges)
		m["pointsto.bits_propagated"] += float64(c.BitsPropagated)
		m["pointsto.scc_passes"] += float64(c.SCCPasses)
		m["pointsto.prep_merged"] += float64(c.PrepMerged)
		m["pointsto.hcd_collapses"] += float64(c.HCDCollapses)
		m["pointsto.lcd_collapses"] += float64(c.LCDCollapses)
	}
	if tr != nil {
		ls := tr.layers()
		for name, metric := range map[string]string{
			"minic.compile":   "minic.compile_ms",
			"pointsto.build":  "pointsto.build_ms",
			"pointsto.solve":  "pointsto.solve_ms",
			"core.optimistic": "core.optimistic_ms",
			"cfi.policy":      "cfi.policy_ms",
		} {
			m[metric] = ls.p50(name)
		}
		m["minic.alloc_mb"] = ls.meanAlloc("minic.compile")
		m["pointsto.alloc_mb"] = ls.meanAlloc("pointsto.build") + ls.meanAlloc("pointsto.solve") + ls.meanAlloc("core.optimistic")
		tracingOverhead(m, lat, tracedOps)
	}
	return out, nil
}
