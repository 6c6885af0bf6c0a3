package main

import (
	"encoding/json"
	"net/http"
	"os"
	"slices"
	"testing"

	"repro/internal/core"
	"repro/internal/invariant"
	"repro/internal/serve"
	"repro/internal/workload"
)

func hardenedProbe(t *testing.T) *core.Hardened {
	t.Helper()
	sys, err := core.AnalyzeSource("switch-probe", switchProbeSrc, invariant.All())
	if err != nil {
		t.Fatal(err)
	}
	return sys.Harden()
}

func TestCheckPoliciesFlagsDroppedFallbackTarget(t *testing.T) {
	h := hardenedProbe(t)
	if bad := checkPolicies(h.Optimistic, h.Fallback); len(bad) != 0 {
		t.Fatalf("untampered policies flagged: %v", bad)
	}
	site := h.Fallback.Sites[0]
	kept := h.Optimistic.Targets[site][0]
	h.Fallback.Targets[site] = slices.DeleteFunc(slices.Clone(h.Fallback.Targets[site]),
		func(s string) bool { return s == kept })
	if bad := checkPolicies(h.Optimistic, h.Fallback); len(bad) == 0 {
		t.Fatal("a fallback view missing an optimistic target was not flagged")
	}
}

func TestCheckSoundnessFlagsUnexplainedTarget(t *testing.T) {
	h := hardenedProbe(t)
	tr := h.NewExecution(true).Run("main", []int64{4, 9, 1, 2, 3, 4})
	if bad := checkSoundness(h.Sys.Fallback, tr); len(bad) != 0 {
		t.Fatalf("sound run flagged: %v", bad)
	}
	site := h.Fallback.Sites[0]
	tr.ICallObserved[site]["not_a_target"] = true
	if bad := checkSoundness(h.Sys.Fallback, tr); len(bad) == 0 {
		t.Fatal("a call target the analysis never allowed was not flagged")
	}
}

func TestCheckRunFlagsTamperedAnswers(t *testing.T) {
	h := hardenedProbe(t)
	clean := &execBatch{prog: &execProgram{name: "probe", h: h}, inputs: []int64{3, 3, 1, 2, 3}}
	violating := &execBatch{prog: clean.prog, inputs: []int64{3, 1, 1, 0, 3}, violates: true}
	for _, b := range []*execBatch{clean, violating} {
		for _, counted := range []bool{false, true} {
			run, err := execOp(nil, 0, b, counted)
			if err != nil {
				t.Fatal(err)
			}
			got, want := answerOf(run.trace, run.switched), plainRun(nil, 0, b)
			if bad := checkRun(got, want); len(bad) != 0 {
				t.Fatalf("violates=%v counted=%v: untampered run flagged: %v", b.violates, counted, bad)
			}
			changed := got
			changed.Outputs = append([]int64{}, got.Outputs...)
			changed.Outputs[0]++
			noSwitch := got
			noSwitch.Switched = !got.Switched
			for name, tampered := range map[string]runAnswer{"output": changed, "switch": noSwitch} {
				if bad := checkRun(tampered, want); len(bad) == 0 {
					t.Errorf("violates=%v: tampered %s not flagged", b.violates, name)
				}
			}
		}
	}
}

// served asks an in-process daemon one question and decodes the answer.
func served[T any](t *testing.T, h http.Handler, path string, sub submission) T {
	t.Helper()
	body, _ := json.Marshal(sub)
	rec := post(h, path, body)
	if rec.Code != http.StatusOK {
		t.Fatalf("%s: status %d: %s", path, rec.Code, rec.Body)
	}
	var a T
	if err := json.Unmarshal(rec.Body.Bytes(), &a); err != nil {
		t.Fatal(err)
	}
	return a
}

func TestServeChecksFlagTamperedAnswers(t *testing.T) {
	src := workload.RandomProgram(7)
	srv := serve.New(serve.Config{})
	sub := submission{Source: src, Config: "all"}
	sys, err := core.AnalyzeSource("reference", src, invariant.All())
	if err != nil {
		t.Fatal(err)
	}
	ref := newReference(src, sys)

	an := served[analyzeAnswer](t, srv, "/analyze", sub)
	cfi := served[cfiAnswer](t, srv, "/cfi-targets", sub)
	inv := served[invariantsAnswer](t, srv, "/invariants", sub)
	sub.Fn, sub.Reg = "put", "%v"
	pt := served[pointstoAnswer](t, srv, "/pointsto", sub)
	for name, bad := range map[string][]string{
		"analyze": ref.checkAnalyze(an), "cfi-targets": ref.checkCFI(cfi),
		"invariants": ref.checkInvariants(inv), "pointsto": ref.checkPointsTo(pt),
	} {
		if len(bad) != 0 {
			t.Fatalf("untampered %s answer flagged: %v", name, bad)
		}
	}
	if len(cfi.Sites) == 0 || len(pt.Fallback) == 0 {
		t.Fatalf("program too small to tamper with: %+v %+v", cfi, pt)
	}

	// The same answers through checkServed, the path a run takes: one
	// line per wrong answer.
	progs := []serveProgram{{src: src, queries: randomQueries}}
	answers := map[answerKey][]byte{}
	for path, a := range map[string]any{"/analyze": an, "/cfi-targets": cfi, "/invariants": inv} {
		body, _ := json.Marshal(a)
		answers[answerKey{config: "all", endpoint: path}] = body
	}
	if bad := checkServed(progs, answers); len(bad) != 0 {
		t.Fatalf("untampered answers flagged: %v", bad)
	}
	wrong := an
	wrong.Objects++
	answers[answerKey{config: "all", endpoint: "/analyze"}], _ = json.Marshal(wrong)
	if bad := checkServed(progs, answers); len(bad) != 1 {
		t.Fatalf("one wrong answer gave %d check failures: %v", len(bad), bad)
	}

	an.SolverIterations++
	if len(ref.checkAnalyze(an)) == 0 {
		t.Error("analyze summary with a wrong count not flagged")
	}
	cfi.Sites[0].Optimistic = cfi.Sites[0].Optimistic[1:]
	if len(ref.checkCFI(cfi)) == 0 {
		t.Error("cfi-targets answer with a dropped target not flagged")
	}
	pt.Fallback = pt.Fallback[:len(pt.Fallback)-1]
	if len(ref.checkPointsTo(pt)) == 0 {
		t.Error("pointsto answer with a dropped object not flagged")
	}
	inv.Config = "Baseline"
	if len(ref.checkInvariants(inv)) == 0 {
		t.Error("invariants answer for the wrong configuration not flagged")
	}
}

// TestMetricNamesMatchBenchmarkJSON keeps the printed metric sets in step
// with the benchmark definition at the repository root.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to the benchmark:", err)
	}
	type def struct{ Name, Unit string }
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []def `json:"end_to_end"`
		PerLayer  []def `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		set  string
		spec []def
		code []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer}} {
		if len(c.spec) != len(c.code) {
			t.Errorf("%s: BENCHMARK.json has %d metrics, the benchmark prints %d", c.set, len(c.spec), len(c.code))
			continue
		}
		for i, d := range c.code {
			if c.spec[i].Name != d.name || c.spec[i].Unit != d.unit {
				t.Errorf("%s[%d]: BENCHMARK.json %s (%s), the benchmark %s (%s)",
					c.set, i, c.spec[i].Name, c.spec[i].Unit, d.name, d.unit)
			}
		}
	}
	for _, w := range spec.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no implementation", w.Name)
		}
	}
	if len(spec.Workloads) != len(workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
}
