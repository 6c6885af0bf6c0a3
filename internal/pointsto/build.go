package pointsto

import (
	"fmt"

	"repro/internal/invariant"
	"repro/internal/ir"
)

// buildOp is one primitive constraint recorded by build's module walk.
// Recording instead of installing lets the walk finish first, so the
// per-node arrays are allocated once at their exact length; the constraints
// are then installed in walk order, which keeps node ids, edge order and the
// initial worklist exactly as if they had been installed during the walk.
type buildOp struct {
	kind opKind
	x, y int32 // endpoints, see opKind
	site int32
	off  int32 // opGep: analysis-slot field offset
}

type opKind uint8

const (
	opAddr  opKind = iota // {y} ⊆ pts(x), y an object slot node
	opCopy                // x -> y
	opLoad                // y = *x
	opStore               // *x = y
	opGep                 // y = &x->off
	opArith               // y = x + unknown
	opICall               // x indexes icallSites
)

// build creates all abstract objects and primitive constraints for the
// module, applying the Ctx policy's constraint rewrites when enabled. The
// module walk declares every node and records the constraints; sizeNodes
// then allocates the per-node arrays and the recorded constraints are
// installed in order.
func (a *Analysis) build() {
	// Every instruction but a direct call records at most one constraint, so
	// the instruction count is a first size for the tape (append grows it
	// when calls and Ctx rewiring need more); the tape is dropped after
	// build.
	a.tape = make([]buildOp, 0, max(a.mod.NumInstrs(), 0))

	// Objects for globals and functions, in module order (the object index
	// space is therefore identical across configurations, which lets memory
	// views and the interpreter share object identities).
	for _, g := range a.mod.Globals {
		a.objByGlobal[g.Name] = a.newObject(ObjGlobal, g.Name, "", 0, g.Type)
	}
	for _, f := range a.mod.Funcs {
		a.objByFunc[f.Name] = a.newObject(ObjFunc, f.Name, "", 0, nil)
	}

	// Ctx pre-pass: find precision-critical arguments (§4.4). The plan is
	// always computed (it is reported by introspection) but constraints are
	// rewritten only under cfg.Ctx.
	a.ctxPlan = detectCtx(a.mod)
	if a.cfg.Ctx {
		for _, cs := range a.ctxPlan.stores {
			a.ctxSkip[cs.store.ID] = true
		}
		for _, cr := range a.ctxPlan.rets {
			a.ctxSkip[cr.ret.ID] = true
		}
	}

	for _, f := range a.mod.Funcs {
		fn := f.Name
		f.Instrs(func(_ *ir.Block, in ir.Instr) {
			switch in := in.(type) {
			case *ir.Alloca:
				o := a.newObject(ObjStack, in.Var, fn, in.ID, in.Ty)
				a.objBySite[in.ID] = o
				a.record(opAddr, a.regNode(fn, in.Dest), o.NodeBase, in.ID)
			case *ir.Malloc:
				o := a.newObject(ObjHeap, "heap", fn, in.ID, in.SizeOf)
				a.objBySite[in.ID] = o
				a.record(opAddr, a.regNode(fn, in.Dest), o.NodeBase, in.ID)
			case *ir.AddrGlobal:
				o := a.objByGlobal[in.Global]
				a.record(opAddr, a.regNode(fn, in.Dest), o.NodeBase, in.ID)
			case *ir.AddrFunc:
				o := a.objByFunc[in.Func]
				a.record(opAddr, a.regNode(fn, in.Dest), o.NodeBase, in.ID)
			case *ir.Copy:
				a.record(opCopy, a.regNode(fn, in.Src), a.regNode(fn, in.Dest), in.ID)
			case *ir.Load:
				a.record(opLoad, a.regNode(fn, in.Addr), a.regNode(fn, in.Dest), in.ID)
			case *ir.Store:
				if !a.ctxSkip[in.ID] {
					a.record(opStore, a.regNode(fn, in.Addr), a.regNode(fn, in.Src), in.ID)
				}
			case *ir.FieldAddr:
				off := a.layouts.Of(in.Struct).FieldAnalysisOff[in.Field]
				a.recordGep(a.regNode(fn, in.Base), a.regNode(fn, in.Dest), off, in.ID)
			case *ir.IndexAddr:
				// Array-index insensitive: the element shares the base's
				// analysis slot.
				a.record(opCopy, a.regNode(fn, in.Base), a.regNode(fn, in.Dest), in.ID)
			case *ir.PtrAdd:
				a.record(opArith, a.regNode(fn, in.Base), a.regNode(fn, in.Dest), in.ID)
			case *ir.Call:
				a.wireDirectCall(fn, in)
			case *ir.ICall:
				a.wireICallSite(fn, in)
			case *ir.Ret:
				if in.Src != "" && !a.ctxSkip[in.ID] {
					a.record(opCopy, a.regNode(fn, in.Src), a.retNode(fn), in.ID)
				}
			}
		})
	}

	if a.cfg.Ctx {
		a.wireCtxCallsites()
	}

	a.sizeNodes(a.declared)
	for _, op := range a.tape {
		x, y, site := int(op.x), int(op.y), int(op.site)
		switch op.kind {
		case opAddr:
			a.addAddrOf(x, y, site)
		case opCopy:
			a.addCopy(x, y, site, false)
		case opLoad:
			a.addLoad(x, y, site)
		case opStore:
			a.addStore(x, y, site)
		case opGep:
			a.addGep(x, y, int(op.off), site)
		case opArith:
			a.addArith(x, y, site)
		case opICall:
			s := a.icallSites[x]
			fptr := a.find(int(s.fptr))
			a.icallsAt[fptr] = append(a.icallsAt[fptr], s)
			a.seedDelta(fptr)
		}
	}
	a.tape = nil
}

// record appends one primitive constraint to the build tape.
func (a *Analysis) record(kind opKind, x, y, site int) {
	a.tape = append(a.tape, buildOp{kind: kind, x: int32(x), y: int32(y), site: int32(site)})
}

// recordGep appends a Field-Of constraint to the build tape.
func (a *Analysis) recordGep(base, dest, off, site int) {
	a.tape = append(a.tape, buildOp{kind: opGep, x: int32(base), y: int32(dest), site: int32(site), off: int32(off)})
}

// addAddrOf installs the primitive Addr-Of constraint {obj} ⊆ pts(n) and
// records the raw fact for offline HVN hashing: once copy edges propagate
// eagerly at build time, pts(n) no longer distinguishes a node's own Addr-Of
// constraints from inherited ones.
func (a *Analysis) addAddrOf(n, objNode, site int) {
	a.addrFacts[int32(n)] = append(a.addrFacts[int32(n)], int32(objNode))
	a.addToPts(n, objNode, site, -1, false)
}

// wireDirectCall connects actuals to formals and the return node to the
// destination for a direct call.
func (a *Analysis) wireDirectCall(caller string, c *ir.Call) {
	callee := a.mod.Func(c.Callee)
	for i, arg := range c.Args {
		if i >= len(callee.Params) {
			break
		}
		a.record(opCopy, a.regNode(caller, arg), a.regNode(callee.Name, callee.Params[i]), c.ID)
	}
	if c.Dest != "" {
		a.record(opCopy, a.retNode(callee.Name), a.regNode(caller, c.Dest), c.ID)
	}
}

// wireICallSite registers an indirect callsite on its function-pointer node
// (recorded, so the site is attached once the arrays exist); targets are
// connected during solving as they are discovered.
func (a *Analysis) wireICallSite(caller string, c *ir.ICall) {
	fptr := a.regNode(caller, c.FuncPtr)
	args := make([]int32, len(c.Args))
	for i, arg := range c.Args {
		args[i] = int32(a.regNode(caller, arg))
	}
	dest := int32(-1)
	if c.Dest != "" {
		dest = int32(a.regNode(caller, c.Dest))
	}
	site := &icallSite{
		site:      int32(c.ID),
		fptr:      int32(fptr),
		args:      args,
		dest:      dest,
		connected: map[int]bool{},
	}
	a.record(opICall, len(a.icallSites), 0, c.ID)
	a.icallSites = append(a.icallSites, site)
}

// wireCtxCallsites rewires precision-critical stores and returns
// context-sensitively: per callsite, a private dummy-node chain reproduces
// the callee's address derivation on the actual arguments, so callsites no
// longer pollute each other through the shared formals (§4.4).
func (a *Analysis) wireCtxCallsites() {
	for _, cs := range a.ctxPlan.stores {
		sites := a.ctxPlan.callsites[cs.fn]
		rec := invariant.Record{
			Kind:       invariant.Ctx,
			Site:       cs.store.ID,
			CtxParams:  []int{cs.baseParam, cs.valParam},
			CtxSamples: []invariant.CtxSample{cs.baseSample, cs.valSample},
			Desc:       fmt.Sprintf("precision-critical store in %s: *(arg%d chain) = arg%d", cs.fn, cs.baseParam, cs.valParam),
		}
		for _, c := range sites {
			if cs.baseParam >= len(c.call.Args) || cs.valParam >= len(c.call.Args) {
				continue
			}
			rec.Callsites = append(rec.Callsites, c.call.ID)
			base := a.applyChain(a.regNode(c.caller, c.call.Args[cs.baseParam]), cs.chain, c.call.ID)
			a.record(opStore, base, a.regNode(c.caller, c.call.Args[cs.valParam]), c.call.ID)
		}
		a.ctxRecords = append(a.ctxRecords, rec)
	}
	for _, cr := range a.ctxPlan.rets {
		sites := a.ctxPlan.callsites[cr.fn]
		rec := invariant.Record{
			Kind:       invariant.Ctx,
			Site:       cr.ret.ID,
			CtxParams:  []int{cr.param},
			CtxSamples: []invariant.CtxSample{cr.sample},
			Desc:       fmt.Sprintf("precision-critical return in %s: returns arg%d", cr.fn, cr.param),
		}
		for _, c := range sites {
			if cr.param >= len(c.call.Args) || c.call.Dest == "" {
				continue
			}
			rec.Callsites = append(rec.Callsites, c.call.ID)
			v := a.applyChain(a.regNode(c.caller, c.call.Args[cr.param]), cr.chain, c.call.ID)
			a.record(opCopy, v, a.regNode(c.caller, c.call.Dest), c.call.ID)
		}
		a.ctxRecords = append(a.ctxRecords, rec)
	}
}

// applyChain replays an address-derivation chain on a starting node using
// fresh dummy nodes, returning the final node.
func (a *Analysis) applyChain(start int, chain []ctxStep, site int) int {
	n := start
	for _, st := range chain {
		d := a.newNode(node{kind: nodeDummy})
		switch st.kind {
		case stepField:
			a.recordGep(n, d, int(st.off), site)
		case stepIndex:
			a.record(opCopy, n, d, site)
		case stepLoad:
			a.record(opLoad, n, d, site)
		}
		n = d
	}
	return n
}
