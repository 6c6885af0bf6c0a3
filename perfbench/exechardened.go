package main

// exec-hardened: monitored execution. Set-up analyzes and hardens the nine
// paper apps and one benchmark-owned program; each op builds a fresh
// monitored execution and runs one request batch through it. The
// interpreter and the monitor runtime do the work; the solver does none.

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/invariant"
	"repro/internal/memview"
	"repro/internal/minic"
	"repro/internal/workload"
)

const (
	// execBatches distinct request batches per program, of fixed sizes (40 to
	// 128 requests of an app, 1500 to 2490 probe iterations), so a seed
	// changes the requests but not how much work the batches hold.
	execBatches        = 12
	execViolationShare = 0.05 // share of ops whose input breaks a PA invariant
	execCountOps       = 64   // leading ops the determinism check runs again
	execSetupReps      = 5
	execSlice          = 250 // ops per throughput and latency slice
)

// switchProbeSrc is the benchmark's own program, after examples/fallback:
// a dispatch loop whose arithmetic pointer addresses a struct on the
// iteration its second input names, breaking the PA invariant. The monitor
// switches the view before the store, and the overwritten handler then runs
// under the fallback policy. Naming an iteration past the loop keeps the
// run clean.
const switchProbeSrc = `
struct dispatcher { fn handler; int* state; }
dispatcher disp;
int buff[16];

int normal_op(int* x) { return 1; }
int rare_op(int* x) { return 2; }

void patch(char* region, fn op, int off) {
  *(region + off) = op;
}

int main() {
  char* region;
  fn op;
  int n;
  int bad;
  int i;
  int acc;
  disp.handler = &normal_op;
  op = &rare_op;
  n = input();
  bad = input();
  acc = 0;
  i = 0;
  while (i < n) {
    region = buff;
    if (i == bad) {
      region = &disp;
    }
    patch(region, op, input());
    acc = acc + disp.handler(null);
    i = i + 1;
  }
  output(acc);
  return acc;
}
`

type execProgram struct {
	name string
	h    *core.Hardened
}

// execBatch is one request batch; ref is the uninstrumented run's answer,
// computed the first time the batch is checked.
type execBatch struct {
	prog     *execProgram
	inputs   []int64
	violates bool
	ref      *runAnswer
}

type execState struct {
	progs     []*execProgram
	clean     []*execBatch
	violating []*execBatch
}

func execSetup(seed int64) (*execState, error) {
	st := &execState{}
	r := subRand(seed, 3)
	harden := func(name, src string) (*execProgram, error) {
		m, err := minic.Compile(name, src)
		if err != nil {
			return nil, err
		}
		sys, err := core.AnalyzeCtx(context.Background(), m, invariant.All(), core.AnalyzeOpts{})
		if err != nil {
			return nil, fmt.Errorf("%s: %w", name, err)
		}
		p := &execProgram{name: name, h: sys.Harden()}
		st.progs = append(st.progs, p)
		return p, nil
	}
	for _, app := range workload.Apps() {
		p, err := harden(app.Name, app.Source)
		if err != nil {
			return nil, err
		}
		for i := 0; i < execBatches; i++ {
			st.clean = append(st.clean, &execBatch{prog: p, inputs: app.Requests(40+8*i, r.Int63())})
		}
	}
	probe, err := harden("switch-probe", switchProbeSrc)
	if err != nil {
		return nil, err
	}
	probeInputs := func(n int, bad func(n int) int) []int64 {
		b := bad(n)
		in := []int64{int64(n), int64(b)}
		for i := 0; i < n; i++ {
			off := int64(1 + r.Intn(15))
			if i == b {
				off = 0 // overwrite disp.handler
			}
			in = append(in, off)
		}
		return in
	}
	for i := 0; i < execBatches; i++ {
		n := 1500 + 90*i
		st.clean = append(st.clean, &execBatch{prog: probe, inputs: probeInputs(n, func(n int) int { return n })})
		st.violating = append(st.violating, &execBatch{prog: probe, violates: true,
			inputs: probeInputs(n, func(n int) int { return r.Intn(n) })})
	}
	return st, nil
}

// execPicker yields a seed's op sequence over the batch pool.
type execPicker struct {
	r  *rand.Rand
	st *execState
}

func (p *execPicker) next() *execBatch {
	if p.r.Float64() < execViolationShare {
		return p.st.violating[p.r.Intn(len(p.st.violating))]
	}
	return p.st.clean[p.r.Intn(len(p.st.clean))]
}

// countingHooks counts every monitor and CFI callback it forwards.
type countingHooks struct {
	inner interp.Hooks
	calls int64
}

func (c *countingHooks) PtrAdd(site int, base interp.Value) { c.calls++; c.inner.PtrAdd(site, base) }
func (c *countingHooks) FieldAddr(site int, base, result interp.Value) {
	c.calls++
	c.inner.FieldAddr(site, base, result)
}
func (c *countingHooks) CtxCall(site int, args []interp.Value) {
	c.calls++
	c.inner.CtxCall(site, args)
}
func (c *countingHooks) CtxCheck(site int, vals []interp.Value) {
	c.calls++
	c.inner.CtxCheck(site, vals)
}
func (c *countingHooks) CheckICall(site int, target string) bool {
	c.calls++
	return c.inner.CheckICall(site, target)
}

// execRun is what one op observed.
type execRun struct {
	trace    *interp.Trace
	switched bool
	hooks    int64 // monitor and CFI callbacks (determinism pass only)
}

// execOp is one op: a fresh monitored execution and one run. An op that is
// not layered takes the one-call path a user would; a layered op assembles
// the same execution from its layers (switcher and monitor runtime,
// interpreter), with a span around each when tr is non-nil, or behind a
// hook-counting wrapper when tr is nil (the untimed determinism pass).
func execOp(tr *tracer, op int, b *execBatch, layered bool) (execRun, error) {
	h := b.prog.h
	if !layered {
		e := h.NewExecution(false)
		t := e.Run("main", b.inputs)
		return execRun{trace: t, switched: e.Switcher.Switched()}, nil
	}
	root := tr.start("op", op, -1)
	sp := tr.start("memview.runtime", op, root)
	sw, secret := memview.NewSwitcher(h.Optimistic.View("optimistic"), h.Fallback.View("fallback"))
	rt, ins, err := memview.BuildRuntime(h.Sys.Optimistic, memview.RuntimeOpts{Switcher: sw, Secret: secret})
	tr.finish(sp, "")
	if err != nil {
		return execRun{}, err
	}
	var hooks interp.Hooks = rt
	var counter *countingHooks
	if tr == nil {
		counter = &countingHooks{inner: rt}
		hooks = counter
	}
	sp = tr.start("interp.new", op, root)
	mc := interp.New(h.Sys.Module, interp.Config{Hooks: hooks, Instr: ins, Metrics: h.Sys.Metrics})
	tr.finish(sp, "")
	sp = tr.start("interp.run", op, root)
	t := mc.Run("main", b.inputs)
	attr := ""
	if sw.Switched() {
		attr = "switch"
	}
	tr.finish(sp, attr)
	tr.finish(root, "")
	run := execRun{trace: t, switched: sw.Switched()}
	if counter != nil {
		run.hooks = counter.calls
	}
	return run, nil
}

// plainRun runs the batch on an uninstrumented interpreter, the reference
// a hardened run must agree with.
func plainRun(tr *tracer, op int, b *execBatch) runAnswer {
	mc := interp.New(b.prog.h.Sys.Module, interp.Config{})
	sp := tr.start("interp.plain_run", op, -1)
	t := mc.Run("main", b.inputs)
	tr.finish(sp, "")
	a := answerOf(t, false)
	a.Switched = b.violates
	return a
}

func runExecHardened(cfg runConfig) (*outcome, error) {
	out := &outcome{metrics: map[string]float64{}}
	st, setupS, err := timeSetup(cfg.clock, execSetupReps, func() (*execState, error) { return execSetup(cfg.seed) })
	if err != nil {
		return nil, err
	}
	var tr *tracer
	if cfg.traced {
		tr = newTracer(cfg.clock)
		out.tracer = tr
	}
	type counts struct {
		steps, memops int64
		switched      bool
	}
	var (
		lat, allocMB []float64
		windows      []int  // each op's host-probe window
		tracedOps    []bool // which ops of a traced run ran traced
		busy         time.Duration
		leading      []counts
		tracedSteps  int64
	)
	picker := &execPicker{r: subRand(cfg.seed, 4), st: st}
	phase := time.Now()
	for op := 0; ; op++ {
		if (busy >= cfg.seconds && op >= minOps) || time.Since(phase) >= maxPhase {
			break
		}
		b := picker.next()
		traced := tr != nil && op%2 == 1
		w := cfg.clock.window()
		a0, c0 := heapAllocs(), cpuTime()
		run, err := execOp(tr, op, b, traced)
		d, allocs := cpuTime()-c0, heapAllocs()-a0
		cfg.clock.count(d)
		out.attempted++
		if err != nil {
			out.failed++
			out.mismatch("op %d (%s): %v", op, b.prog.name, err)
			continue
		}
		busy += d
		lat = append(lat, ms(d))
		windows = append(windows, w)
		tracedOps = append(tracedOps, traced)
		allocMB = append(allocMB, float64(allocs)/mib)
		if traced {
			tracedSteps += run.trace.Steps
		}
		if traced || b.ref == nil {
			// Only a traced op's plain run gets a span, so interp.plain_run
			// and interp.run cover the same ops.
			ptr := tr
			if !traced {
				ptr = nil
			}
			ref := plainRun(ptr, op, b)
			b.ref = &ref
		}
		if bad := checkRun(answerOf(run.trace, run.switched), *b.ref); len(bad) > 0 {
			out.failed++
			out.mismatch("op %d (%s): %v", op, b.prog.name, bad)
		}
		if op < execCountOps {
			leading = append(leading, counts{run.trace.Steps, run.trace.MemOps, run.switched})
		}
	}
	cfg.clock.probe() // closes the last op's window
	m := out.metrics
	m["retained_mb"] = liveHeapMB()

	// Determinism: the leading ops run again, counted, must execute exactly
	// the same steps and memory operations and switch on the same ops.
	again := &execPicker{r: subRand(cfg.seed, 4), st: st}
	for op, want := range leading {
		b := again.next()
		run, err := execOp(nil, op, b, true)
		if err != nil {
			out.mismatch("determinism: op %d: %v", op, err)
			continue
		}
		if got := (counts{run.trace.Steps, run.trace.MemOps, run.switched}); got != want {
			out.mismatch("determinism: op %d (%s) differs between two runs: %+v vs %+v", op, b.prog.name, want, got)
		}
		m["interp.steps"] += float64(run.trace.Steps)
		m["interp.memops"] += float64(run.trace.MemOps)
		m["memview.hook_calls"] += float64(run.hooks)
		if run.switched {
			m["memview.switches"]++
		}
	}

	targets, sites := 0, 0
	for _, p := range st.progs {
		for _, n := range p.h.Optimistic.TargetCounts() {
			targets += n
			sites++
		}
	}
	m["setup_s"] = setupS
	lat = cfg.clock.scaled(lat, windows)
	m["ops_per_s"] = sliceRate(lat, execSlice)
	m["p50_ms"] = sliceQuantile(lat, execSlice, 0.5)
	m["p90_ms"] = sliceQuantile(lat, execSlice, 0.9)
	m["alloc_mb"] = mean(allocMB)
	m["cfi_targets_avg"] = float64(targets) / float64(sites)
	if tr != nil {
		ls := tr.layers()
		var runMS, switchMS []float64
		for i, attr := range ls["interp.run"].attrs {
			if attr == "switch" {
				switchMS = append(switchMS, ls["interp.run"].self[i])
			} else {
				runMS = append(runMS, ls["interp.run"].self[i])
			}
		}
		m["interp.run_ms"] = median(runMS)
		m["memview.switch_run_ms"] = median(switchMS)
		m["interp.plain_run_ms"] = ls.p50("interp.plain_run")
		if plain := sum(ls["interp.plain_run"].self); plain > 0 {
			m["interp.overhead"] = sum(ls["interp.run"].self) / plain
		}
		m["interp.new_ms"] = ls.p50("interp.new")
		m["memview.runtime_ms"] = ls.p50("memview.runtime")
		m["interp.steps_per_s"] = float64(tracedSteps) / (sum(ls["interp.run"].self) / 1000)
		tracingOverhead(m, lat, tracedOps)
	}
	return out, nil
}
