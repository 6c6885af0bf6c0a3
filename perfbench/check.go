package main

// Answer checks. Every check runs outside the timed region and returns one
// line per disagreement (nil = the answer is right). The references are
// independent of the code path under test: the interpreter for the
// analyses, an uninstrumented interpreter run for hardened executions, and
// an in-process analysis for the daemon's answers.

import (
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"slices"

	"repro/internal/cfi"
	"repro/internal/core"
	"repro/internal/interp"
	"repro/internal/pointsto"
)

// checkPolicies requires the two CFI views to cover the same callsites and
// every optimistic target to be a fallback target: the optimistic view may
// only be more precise, never permit something the sound view forbids.
func checkPolicies(opt, fb *cfi.Policy) []string {
	var bad []string
	if !slices.Equal(opt.Sites, fb.Sites) {
		bad = append(bad, fmt.Sprintf("callsites differ: optimistic %v, fallback %v", opt.Sites, fb.Sites))
	}
	for _, site := range opt.Sites {
		for _, t := range opt.Targets[site] {
			if !slices.Contains(fb.Targets[site], t) {
				bad = append(bad, fmt.Sprintf("icall #%d: optimistic target %s missing from fallback %v", site, t, fb.Targets[site]))
			}
		}
	}
	return bad
}

// checkSoundness requires every dynamic points-to fact and indirect-call
// target the interpreter observed to be in the fallback result. A run that
// faults (some generated programs call through a null function pointer)
// is checked up to the fault; a run the CFI check blocked is itself a
// failure, because a sound policy never blocks a call the program makes.
func checkSoundness(fallback *pointsto.Result, tr *interp.Trace) []string {
	bad := core.SoundnessReport(fallback, tr)
	var blocked *interp.CFIViolation
	if errors.As(tr.Err, &blocked) {
		bad = append(bad, "hardened run blocked a call: "+blocked.Error())
	}
	return bad
}

// runAnswer is the observable outcome of one execution.
type runAnswer struct {
	Outputs  []int64
	Result   int64
	Err      string
	Switched bool // the memory view switched to fallback during the run
}

func answerOf(tr *interp.Trace, switched bool) runAnswer {
	a := runAnswer{Outputs: tr.Outputs, Result: tr.Result, Switched: switched}
	if tr.Err != nil {
		a.Err = tr.Err.Error()
	}
	return a
}

// checkRun compares a hardened run against the uninstrumented reference run
// on the same inputs: monitoring must not change what the program computes,
// and the view must switch exactly when the inputs break an invariant.
func checkRun(got, want runAnswer) []string {
	var bad []string
	if !slices.Equal(got.Outputs, want.Outputs) {
		bad = append(bad, fmt.Sprintf("outputs %v, reference %v", got.Outputs, want.Outputs))
	}
	if got.Result != want.Result {
		bad = append(bad, fmt.Sprintf("result %d, reference %d", got.Result, want.Result))
	}
	if got.Err != want.Err {
		bad = append(bad, fmt.Sprintf("error %q, reference %q", got.Err, want.Err))
	}
	if got.Switched != want.Switched {
		bad = append(bad, fmt.Sprintf("view switched=%v, want %v", got.Switched, want.Switched))
	}
	return bad
}

// Daemon answers, as the wire carries them (docs/API.md).

type analyzeAnswer struct {
	Program          string `json:"program"`
	Config           string `json:"config"`
	Cached           bool   `json:"cached"`
	Objects          int    `json:"objects"`
	ConstraintNodes  int    `json:"constraint_nodes"`
	SolverIterations int    `json:"solver_iterations"`
	Invariants       int    `json:"invariants"`
	MonitorSites     int    `json:"monitor_sites"`
	ICallSites       int    `json:"icall_sites"`
}

type pointstoAnswer struct {
	Program    string   `json:"program"`
	Config     string   `json:"config"`
	Fn         string   `json:"fn"`
	Reg        string   `json:"reg"`
	Optimistic []string `json:"optimistic"`
	Fallback   []string `json:"fallback"`
}

type cfiSiteAnswer struct {
	Site       int      `json:"site"`
	Optimistic []string `json:"optimistic"`
	Fallback   []string `json:"fallback"`
}

type cfiAnswer struct {
	Program string          `json:"program"`
	Config  string          `json:"config"`
	Sites   []cfiSiteAnswer `json:"sites"`
}

type invariantAnswer struct {
	Kind string `json:"kind"`
	Site int    `json:"site"`
	Desc string `json:"desc"`
}

type invariantsAnswer struct {
	Program      string            `json:"program"`
	Config       string            `json:"config"`
	Invariants   []invariantAnswer `json:"invariants"`
	MonitorSites int               `json:"monitor_sites"`
}

// reference is the in-process analysis one daemon answer is checked
// against.
type reference struct {
	hash   string
	sys    *core.System
	opt    *cfi.Policy
	fb     *cfi.Policy
	config string // the configuration's wire label
}

func newReference(src string, sys *core.System) *reference {
	sum := sha256.Sum256([]byte(src))
	return &reference{
		hash:   hex.EncodeToString(sum[:]),
		sys:    sys,
		opt:    cfi.PolicyFrom(sys.Optimistic),
		fb:     cfi.PolicyFrom(sys.Fallback),
		config: sys.Config.Name(),
	}
}

func (r *reference) header(program, config string) []string {
	var bad []string
	if program != r.hash {
		bad = append(bad, fmt.Sprintf("program hash %.16s, want %.16s", program, r.hash))
	}
	if config != r.config {
		bad = append(bad, fmt.Sprintf("config %q, want %q", config, r.config))
	}
	return bad
}

func (r *reference) checkAnalyze(a analyzeAnswer) []string {
	bad := r.header(a.Program, a.Config)
	opt := r.sys.Optimistic
	want := analyzeAnswer{
		Program: a.Program, Config: a.Config, Cached: a.Cached,
		Objects:          len(opt.Objects()),
		ConstraintNodes:  opt.NodeCount(),
		SolverIterations: opt.Stats().Iterations,
		Invariants:       len(r.sys.Invariants()),
		MonitorSites:     opt.Stats().MonitorSites,
		ICallSites:       len(opt.ICallSites()),
	}
	if a != want {
		bad = append(bad, fmt.Sprintf("analyze summary %+v, want %+v", a, want))
	}
	return bad
}

func labels(r *pointsto.Result, fn, reg string) []string {
	refs := r.PointsTo(fn, reg)
	if reg == "" {
		refs = r.ReturnPointsTo(fn)
	}
	out := []string{}
	for _, ref := range refs {
		out = append(out, ref.String())
	}
	return out
}

func (r *reference) checkPointsTo(a pointstoAnswer) []string {
	bad := r.header(a.Program, a.Config)
	for _, v := range []struct {
		view string
		got  []string
		res  *pointsto.Result
	}{{"optimistic", a.Optimistic, r.sys.Optimistic}, {"fallback", a.Fallback, r.sys.Fallback}} {
		if want := labels(v.res, a.Fn, a.Reg); !slices.Equal(v.got, want) {
			bad = append(bad, fmt.Sprintf("pointsto %s:%s %s %v, want %v", a.Fn, a.Reg, v.view, v.got, want))
		}
	}
	return bad
}

func (r *reference) checkCFI(a cfiAnswer) []string {
	bad := r.header(a.Program, a.Config)
	if len(a.Sites) != len(r.opt.Sites) {
		return append(bad, fmt.Sprintf("cfi-targets: %d sites, want %d", len(a.Sites), len(r.opt.Sites)))
	}
	for i, s := range a.Sites {
		site := r.opt.Sites[i]
		if s.Site != site || !slices.Equal(s.Optimistic, r.opt.Targets[site]) || !slices.Equal(s.Fallback, r.fb.Targets[site]) {
			bad = append(bad, fmt.Sprintf("cfi-targets site %+v, want #%d optimistic %v fallback %v",
				s, site, r.opt.Targets[site], r.fb.Targets[site]))
		}
	}
	return bad
}

func (r *reference) checkInvariants(a invariantsAnswer) []string {
	bad := r.header(a.Program, a.Config)
	recs := r.sys.Invariants()
	if a.MonitorSites != r.sys.Optimistic.Stats().MonitorSites {
		bad = append(bad, fmt.Sprintf("monitor_sites %d, want %d", a.MonitorSites, r.sys.Optimistic.Stats().MonitorSites))
	}
	if len(a.Invariants) != len(recs) {
		return append(bad, fmt.Sprintf("%d invariants, want %d", len(a.Invariants), len(recs)))
	}
	for i, rec := range recs {
		want := invariantAnswer{Kind: rec.Kind.String(), Site: rec.Site, Desc: rec.Desc}
		if a.Invariants[i] != want {
			bad = append(bad, fmt.Sprintf("invariant %d %+v, want %+v", i, a.Invariants[i], want))
		}
	}
	return bad
}
