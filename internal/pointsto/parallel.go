package pointsto

import (
	"sync"
	"sync/atomic"

	"repro/internal/bitset"
	"repro/internal/telemetry"
)

// Parallel wave propagation. The wave strategy (wave.go) already condenses
// the constraint graph and visits it in topological order; topoOrder
// additionally groups that order into levels with no forward copy/gep edges
// inside a level. The nodes of one level therefore read from earlier levels
// and write only to later ones, which makes their per-node constraint
// evaluation independent — the expensive part of a visit (walking pending
// pointees against every outgoing edge and diffing against target sets) is
// pure set arithmetic over state that nothing else is writing.
//
// solveParallel exploits exactly that: each level runs in three phases.
//
//  1. Snapshot (serial): per level node, charge the step budget, consume the
//     pending delta, and record the node's work set — the same prefix
//     processNode runs, in the same order, so budget accounting and
//     resumability are identical to the sequential wave. A budget abort
//     truncates the level here: the already-charged prefix still flows
//     through gather/apply (a level barrier is the abort point), the rest
//     keeps its delta and worklist entry, and a later resolve resumes.
//  2. Gather (parallel): a bounded worker pool evaluates each snapshotted
//     node's gep and copy edges against its work set, staging the bits each
//     edge would add (already diffed against the target's current set).
//     Workers only read: union-find lookups go through findRead (no path
//     compression), points-to sets are only traversed, and no telemetry or
//     stats state is touched. This phase carries the dominant set-traversal
//     cost of a wave.
//  3. Apply (serial, in level order): staged additions are merged into the
//     target sets with the usual delta bookkeeping, and the rare mutating
//     constraint kinds — HCD firing, field-sensitivity collapse, derived
//     load/store copy edges, pointer arithmetic, indirect-call wiring, LCD
//     probes — replay exactly as processNode would run them. Everything that
//     merges nodes, creates nodes, or edits shared maps happens here, single
//     threaded, in a deterministic order.
//
// Determinism and byte-identity: gather is pure, so its staged output is a
// function of the barrier-state snapshot alone, independent of worker
// scheduling; apply runs in level order, so the whole solve is deterministic
// run to run. Against the sequential solvers the visit interleaving differs,
// but every constraint is monotone over a lattice with unique least fixpoint,
// and the canonical Result views (object slots of a collapsed object all
// resolve to its base) erase representation-level differences — so the
// serialized artifacts are byte-identical, which the differential oracle,
// FuzzParallelEquivalence, and the bench golden test assert.
//
// The tracer path (SetTracer) is synchronous and order-sensitive by contract,
// so an installed tracer falls back to the sequential wave (see resolve).

// parallelGatherMin is the level width below which gather runs inline on the
// solver goroutine: spawning workers for a handful of nodes costs more than
// the set arithmetic being fanned out.
const parallelGatherMin = 8

// gepIntent stages one gep edge's evaluation: the pointee bits the edge adds
// to its target (pre-diffed against the target's gather-time set) and the
// objects the baseline PWC mitigation must collapse before the merge.
type gepIntent struct {
	to       int32
	adds     *bitset.Set
	collapse []*Object
}

// copyIntent stages one copy edge's evaluation: the work bits not yet in the
// target's gather-time set. An empty diff is kept — it is the propagation
// miss that triggers the lazy-cycle-detection probe at apply time.
type copyIntent struct {
	to   int32
	diff *bitset.Set
}

// levelTask is one snapshotted node of a level: its consumed work set plus
// the per-edge intents gather stages for apply.
type levelTask struct {
	n      int
	work   *bitset.Set
	elems  []int
	geps   []gepIntent
	copies []copyIntent
}

// solveParallel runs wave propagation with level-parallel gathering to a
// fixed point. Round structure (sccPass, residual drain, quiescence check)
// mirrors solveWave; only the per-level visit is split into phases.
func (a *Analysis) solveParallel(solveSpan *telemetry.Span) {
	for {
		a.stats.Waves++
		a.hWLDepth.Observe(int64(len(a.worklist)))
		a.gLiveDepth.Set(int64(len(a.worklist)))
		_, finW := a.metrics.StartSpan("pointsto/round/parallel", solveSpan)
		stopW := a.metrics.Timer("pointsto/phase/parallel").Start()
		changed := a.sccPass()
		order, starts := a.topoOrder()
		for li := 0; li+1 < len(starts); li++ {
			a.runLevel(order[starts[li]:starts[li+1]])
			if a.abortErr != nil {
				break
			}
		}
		// Residual work (derived edges may point upstream) drains
		// sequentially, exactly as in solveWave; after an abort the drain's
		// own budget check makes it a no-op.
		a.drain()
		stopW()
		finW()
		if a.abortErr != nil {
			return
		}
		if !changed && !a.sccPass() {
			if len(a.worklist) == 0 {
				return
			}
		}
	}
}

// runLevel processes one level: serial snapshot, parallel gather, serial
// apply. See the package comment at the top of this file for the phase
// contract.
func (a *Analysis) runLevel(level []int) {
	a.hLevelWidth.Observe(int64(len(level)))
	tasks := make([]levelTask, 0, len(level))
	for _, n := range level {
		// Visit only queued representatives. Every state change re-queues the
		// nodes it affects (addToPts/unionSetInto push, merges and collapses
		// seed full flushes), so skipping unqueued nodes drops no work — and
		// it keeps budget accounting aligned with the worklist's pops: a
		// resumed solve spends its steps on pending nodes instead of
		// re-walking the whole order, so repeated small budgets always make
		// progress.
		if a.find(n) != n || !a.inWL[n] {
			continue
		}
		if a.budgeted && !a.budgetStep() {
			break // truncate the level; unvisited nodes stay queued
		}
		a.inWL[n] = false
		// Consume the node's pending work — the same accounting prefix as
		// processNode, so step counts and delta stats match the sequential
		// wave visit for visit.
		a.stats.Iterations++
		a.cLivePops.Inc()
		var work *bitset.Set
		if a.noDelta {
			work = a.pts[n]
			if work != nil {
				size := work.Len()
				a.stats.BitsPropagated += size
				a.hDeltaSize.Observe(int64(size))
			}
		} else {
			work = a.delta[n]
			a.delta[n] = nil
			if work != nil {
				size := work.Len()
				a.stats.BitsPropagated += size
				a.hDeltaSize.Observe(int64(size))
				if a.pts[n] != nil {
					a.stats.BitsAvoided += a.pts[n].Len() - size
				}
			}
		}
		if work == nil || work.Empty() {
			continue
		}
		tasks = append(tasks, levelTask{n: n, work: work})
	}
	if len(tasks) == 0 {
		return
	}
	a.gatherLevel(tasks)
	a.applyLevel(tasks)
	if !a.noDelta {
		// Every task of the level is applied: only now are the consumed
		// deltas (t.work, read by gather and by apply's replay) free to be
		// handed out again.
		for i := range tasks {
			a.recycleDelta(tasks[i].work)
		}
	}
}

// gatherLevel stages every task's edge evaluations, fanning out across up to
// a.parallel workers when the level is wide enough to pay for them. Workers
// write only into their own task slots; everything else is read-only.
func (a *Analysis) gatherLevel(tasks []levelTask) {
	nw := a.parallel
	if nw > len(tasks) {
		nw = len(tasks)
	}
	if nw <= 1 || len(tasks) < parallelGatherMin {
		for i := range tasks {
			a.gatherTask(&tasks[i])
		}
		return
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < nw; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			done := 0
			for {
				i := int(cursor.Add(1)) - 1
				if i >= len(tasks) {
					break
				}
				a.gatherTask(&tasks[i])
				done++
			}
			// Histograms are atomic, so recording occupancy from the worker
			// itself is race-free.
			a.hOccupancy.Observe(int64(done))
		}()
	}
	wg.Wait()
}

// gatherTask evaluates one node's gep and copy edges against its work set,
// staging per-edge additions. Read-only: representative lookups use findRead
// and target sets are only diffed against.
func (a *Analysis) gatherTask(t *levelTask) {
	n := t.n
	t.elems = t.work.Elements()
	if geps := a.gepTo[n]; len(geps) > 0 {
		t.geps = make([]gepIntent, 0, len(geps))
		for _, e := range geps {
			gi := gepIntent{to: e.to}
			var adds *bitset.Set
			for _, o := range t.elems {
				if e.collapse {
					// Baseline PWC mitigation: objects flowing through lose
					// field sensitivity, after which every slot resolves to
					// the base. The collapse itself mutates, so it is staged
					// for apply; the post-collapse target is known now.
					obj := a.objOfNode(o)
					if obj == nil {
						continue
					}
					if !obj.Insens {
						gi.collapse = append(gi.collapse, obj)
					}
					if adds == nil {
						adds = bitset.New(0)
					}
					adds.Add(obj.NodeBase)
					continue
				}
				if tgt := a.fieldTarget(o, int(e.off)); tgt >= 0 {
					if adds == nil {
						adds = bitset.New(0)
					}
					adds.Add(tgt)
				}
			}
			if adds != nil {
				if p := a.pts[a.findRead(int(e.to))]; p != nil {
					adds = adds.Difference(p)
				}
			}
			gi.adds = adds
			t.geps = append(t.geps, gi)
		}
	}
	if copies := a.copyTo[n]; len(copies) > 0 {
		t.copies = make([]copyIntent, 0, len(copies))
		for _, raw := range copies {
			w := a.findRead(int(raw))
			if w == n {
				continue
			}
			t.copies = append(t.copies, copyIntent{to: raw, diff: t.work.Difference(a.pts[w])})
		}
	}
}

// applyLevel merges every staged intent and replays the mutating constraint
// kinds, single threaded, in level order — the parallel counterpart of the
// corresponding sections of processNode. Union-find merges, node creation,
// and shared-map writes all happen here.
func (a *Analysis) applyLevel(tasks []levelTask) {
	for ti := range tasks {
		t := &tasks[ti]
		n := t.n
		if a.hcdAt != nil && len(a.hcdAt[n]) > 0 {
			a.hcdFire(n, t.elems)
		}
		for _, gi := range t.geps {
			for _, obj := range gi.collapse {
				a.makeFieldInsensitive(obj)
			}
			a.applyUnion(a.find(int(gi.to)), gi.adds)
		}
		for _, e := range a.loadTo[n] {
			for _, o := range t.elems {
				if a.nodes[o].kind != nodeObj {
					continue
				}
				a.addCopy(a.find(o), int(e.other), int(e.site), true)
			}
		}
		for _, e := range a.storeFrom[n] {
			for _, o := range t.elems {
				if a.nodes[o].kind != nodeObj {
					continue
				}
				a.addCopy(int(e.other), a.find(o), int(e.site), true)
			}
		}
		for _, e := range a.arithTo[n] {
			a.processArith(n, e, t.elems)
		}
		for _, s := range a.icallsAt[n] {
			a.connectICall(n, s, t.elems)
		}
		src := a.find(n)
		for _, ci := range t.copies {
			dst := a.find(int(ci.to))
			if dst == src {
				continue
			}
			if a.applyUnion(dst, ci.diff) == 0 && a.lcdSeen != nil {
				// Propagation miss — same converged-cycle signal the
				// sequential copy loop probes on.
				a.lcdProbe(src, dst)
				src = a.find(src)
			}
		}
	}
}

// applyUnion merges a staged pointee set into pts(dst), recording fresh bits
// in dst's delta and enqueueing dst on change; it returns the number of bits
// added. This is unionSetInto minus tracer/provenance support — the parallel
// strategy never runs with a tracer installed. dst must be a representative.
func (a *Analysis) applyUnion(dst int, set *bitset.Set) int {
	if set == nil || set.Empty() {
		return 0
	}
	d := a.ptsOf(dst)
	var into *bitset.Set
	if !a.noDelta {
		into = a.deltaOf(dst)
	}
	added := d.UnionDelta(set, into)
	if added > 0 {
		a.push(dst)
	}
	return added
}
