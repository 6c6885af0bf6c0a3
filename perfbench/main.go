// Command perfbench is the repository's end-to-end benchmark. It drives one
// of three workloads through the public entry points of the analysis
// pipeline, checks every answer outside the timed region, and prints one
// JSON object as the last line of standard output:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With --trace 0 the metrics are the end-to-end set of BENCHMARK.json; with
// --trace 1 they are the per-layer set, taken from spans the benchmark
// records around each layer call (written to <workdir>/spans/). Any failed
// op, answer mismatch, or determinism difference makes the command exit 1.
// See README.md for the workloads, the metric map, and the measured spread.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"
)

// minOps is the fewest timed ops a run may end with: p90 then has at least
// ten samples beyond it. A run extends past --seconds to reach it.
const minOps = 100

// maxPhase caps a timed phase's wall clock, so a very slow host still ends
// the run well inside its time limit (with fewer than minOps ops if need be).
const maxPhase = 100 * time.Second

type metricDef struct{ name, unit string }

// endToEnd is the metric set a --trace 0 run prints, in BENCHMARK.json order.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"p50_ms", "ms"},
	{"p90_ms", "ms"},
	{"alloc_mb", "MB"},
	{"retained_mb", "MB"},
	{"cfi_targets_avg", "targets"},
}

// perLayer is the metric set a --trace 1 run prints. A workload that does
// not exercise a layer reports its metrics as 0.
var perLayer = []metricDef{
	{"minic.compile_ms", "ms"},
	{"minic.alloc_mb", "MB"},
	{"pointsto.build_ms", "ms"},
	{"pointsto.solve_ms", "ms"},
	{"core.optimistic_ms", "ms"},
	{"cfi.policy_ms", "ms"},
	{"pointsto.alloc_mb", "MB"},
	{"pointsto.nodes", "count"},
	{"pointsto.pops", "count"},
	{"pointsto.derived_edges", "count"},
	{"pointsto.bits_propagated", "count"},
	{"pointsto.scc_passes", "count"},
	{"pointsto.prep_merged", "count"},
	{"pointsto.hcd_collapses", "count"},
	{"pointsto.lcd_collapses", "count"},
	{"serve.hit_ms", "ms"},
	{"serve.handler_hit_ms", "ms"},
	{"serve.miss_ms", "ms"},
	{"serve.analyze_ms", "ms"},
	{"serve.pointsto_ms", "ms"},
	{"serve.cfi_targets_ms", "ms"},
	{"serve.invariants_ms", "ms"},
	{"serve.hit_ratio", "ratio"},
	{"serve.lookups", "count"},
	{"serve.shed", "count"},
	{"persist.save_ms", "ms"},
	{"persist.load_ms", "ms"},
	{"persist.warm_load_s", "s"},
	{"persist.records", "count"},
	{"persist.bytes_per_record", "bytes"},
	{"interp.new_ms", "ms"},
	{"interp.run_ms", "ms"},
	{"interp.plain_run_ms", "ms"},
	{"interp.overhead", "ratio"},
	{"interp.steps", "count"},
	{"interp.memops", "count"},
	{"interp.steps_per_s", "1/s"},
	{"memview.runtime_ms", "ms"},
	{"memview.hook_calls", "count"},
	{"memview.switches", "count"},
	{"memview.switch_run_ms", "ms"},
	{"trace.ops_per_s", "1/s"},
	{"trace.untraced_ops_per_s", "1/s"},
	{"trace.overhead", "ratio"},
	{"trace.spans", "count"},
}

// runConfig is what every workload receives.
type runConfig struct {
	seed    int64
	seconds time.Duration
	traced  bool
	workdir string
	clock   *hostClock
}

// outcome is what a workload hands back: op counts, every check failure,
// and the metrics it measured (end-to-end always, per-layer when traced).
type outcome struct {
	attempted, failed int
	mismatches        []string
	metrics           map[string]float64
	tracer            *tracer
}

func (o *outcome) mismatch(format string, args ...any) {
	o.mismatches = append(o.mismatches, fmt.Sprintf(format, args...))
}

var workloads = map[string]func(runConfig) (*outcome, error){
	"solve-cold":    runSolveCold,
	"serve-mixed":   runServeMixed,
	"exec-hardened": runExecHardened,
}

type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}

func main() {
	workload := flag.String("workload", "", "solve-cold | serve-mixed | exec-hardened")
	seed := flag.Int64("seed", 1, "workload seed: every generated input derives from it")
	seconds := flag.Int("seconds", 20, "length of the timed phase")
	trace := flag.Int("trace", 0, "1 = traced run printing the per-layer metrics")
	workdir := flag.String("workdir", ".bench_build", "directory for the record store and spans")
	flag.Parse()

	run := workloads[*workload]
	if run == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: usage: --workload solve-cold|serve-mixed|exec-hardened --seed N --seconds S --trace 0|1\n")
		os.Exit(2)
	}
	if err := pinToOneCPU(); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	clock, err := newHostClock()
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	cfg := runConfig{
		seed:    *seed,
		seconds: time.Duration(*seconds) * time.Second,
		traced:  *trace == 1,
		workdir: *workdir,
		clock:   clock,
	}
	out, err := run(cfg)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *workload, err)
		os.Exit(1)
	}

	defs := endToEnd
	if cfg.traced {
		defs = perLayer
		out.metrics["trace.spans"] = float64(len(out.tracer.spans))
		path := filepath.Join(cfg.workdir, "spans", fmt.Sprintf("%s-seed%d.jsonl", *workload, cfg.seed))
		if err := out.tracer.write(path); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: writing spans: %v\n", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "perfbench: %d spans written to %s\n", len(out.tracer.spans), path)
	}
	for i, m := range out.mismatches {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... and %d more check failures\n", len(out.mismatches)-i)
			break
		}
		fmt.Fprintf(os.Stderr, "perfbench: CHECK FAILED: %s\n", m)
	}
	res := resultLine{
		Correct:   out.failed == 0 && len(out.mismatches) == 0,
		Attempted: out.attempted,
		Failed:    out.failed,
		Metrics:   map[string]metricOut{},
	}
	for _, d := range defs {
		res.Metrics[d.name] = metricOut{Value: out.metrics[d.name], Unit: d.unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d ops, %d failed, %d check failures; host probe median %.3f ms (reference %.1f) over %d probes\n",
		*workload, cfg.seed, out.attempted, out.failed, len(out.mismatches), median(clock.samples), probeRefMS, len(clock.samples))
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}
