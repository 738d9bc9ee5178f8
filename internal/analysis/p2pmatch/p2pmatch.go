// Package p2pmatch implements the odinvet analyzer that certifies
// point-to-point protocols deadlock-free by abstract interpretation.
//
// odinstress *searches* schedules for deadlocks and can only ever witness
// their presence; p2pmatch closes the complementary gap from ROADMAP item 4
// and *proves* their absence for the restricted — but dominant — protocol
// shape where peers and tags are compile-time functions of c.Rank() and
// c.Size(). Per protocol scope it interprets the statement tree once per
// concrete rank for every communicator size P in {1,2,3,4,5,7,8},
// extracting each rank's ordered trace of Send/Recv/SendRecv events and
// collective barriers, then replays the traces under the comm package's
// mailbox semantics (a Recv takes the first arriving message from its
// source with its tag; messages on one channel do not overtake).
//
// One replay stands for every schedule. comm's Send is eager (the payload
// is copied and queued; Send never blocks), so running every rank forward
// to its next Recv or collective loses no behaviors, and each collective is
// a full barrier. A receive with a concrete source and tag has at most one
// candidate — the oldest sent, unconsumed message with its tag on its one
// channel — and consuming it disables no other receive, so matching is
// confluent: every schedule ends in the state the replay ends in. A state
// where some rank is blocked is a deadlock witness, classified as:
//
//   - unmatched receive: no Send anywhere in the protocol matches;
//   - send/receive count mismatch: matching Sends exist, but earlier
//     receives consumed them all;
//   - cyclic rendezvous wait: matching Sends are still pending behind the
//     program counters of blocked ranks (reported with the waits-for cycle);
//   - collective divergence: a rank waits at a collective after a peer has
//     already left the protocol;
//   - lost message: a Send that is never received (reported only when the
//     protocol completes at every size).
//
// A protocol scope is either the body of a function literal handed to
// comm.Run/RunStats/RunConfig (when the size argument is constant,
// only that P is checked) or any function declaration that performs
// point-to-point calls directly. Of the conditions the interpreter cannot
// evaluate, error-abort arms — branches that end in a non-control return
// (analysis.ControlReturn, the rule commsym applies too) or a
// panic/t.Fatal — are assumed not taken, and arms that cannot change the
// protocol are skipped.
//
// Everything outside the provable shape is reported as "cannot certify"
// rather than silently skipped: data-dependent peers or tags, wildcard
// (AnySource/AnyTag) and Probe-guarded receives, any other condition or
// loop bound around communication that the interpreter cannot resolve,
// point-to-point on Split sub-communicators (their ranks are renumbered),
// communication through same-package helper calls, and communication in
// goroutines/defers. A human who has vetted such a protocol silences the
// analyzer with //lint:allow p2pmatch and a justification.
//
// comm's own collective implementations are not protocols to certify: every
// caller models a collective as a barrier, and their bodies are that barrier,
// built from point-to-point rounds tagged with a run-time sequence number.
// Like Send's body, they are the primitive the model stands for (see
// collectiveImpls); the golden, chaos, bitwise and stress suites verify
// them dynamically. Cross-package calls are assumed non-communicating:
// framework primitives reserve their own tag ranges (enforced by tagcheck
// and the tagregistry), so they cannot steal a protocol's messages.
package p2pmatch

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"slices"

	"odinhpc/internal/analysis"
)

// Analyzer certifies point-to-point protocols deadlock-free, or reports
// why it cannot.
var Analyzer = &analysis.Analyzer{
	Name: "p2pmatch",
	Doc: "certifies point-to-point Send/Recv protocols deadlock-free by " +
		"interpreting them per rank for P in {1,2,3,4,5,7,8} and replaying " +
		"the one matching of their concrete sources and tags; reports " +
		"unmatched receives, lost messages, send/receive count mismatches " +
		"and rendezvous cycles, and flags wildcard receives, unresolvable " +
		"conditions and non-affine protocols it cannot certify; annotate " +
		"hand-vetted protocols with //lint:allow p2pmatch",
	Run: run,
}

// rankCounts are the communicator sizes a size-polymorphic protocol is
// concretized over: every count up to 5, plus 7 and 8 to catch power-of-two
// and odd-size asymmetries in tree- and ring-shaped protocols.
var rankCounts = []int64{1, 2, 3, 4, 5, 7, 8}

// Interpretation budgets. Exceeding one is reported as "cannot certify",
// never ignored.
const (
	maxIterations = 4096  // loop iterations per rank interpretation
	maxSteps      = 20000 // statements per rank interpretation
	maxEventsRank = 512   // protocol events per rank
)

// p2pNames are the point-to-point methods on comm.Comm. The unexported ones
// are the typed float64 path under comm's collectives, modeled as the Send
// and Recv they are.
var p2pNames = map[string]bool{
	"Send": true, "Recv": true, "RecvMsg": true, "SendRecv": true, "Probe": true,
	"sendFloats": true, "sendIndexed": true, "recvIndexed": true,
}

// runFnNames are the package-level comm entry points that spawn one
// goroutine per rank from a protocol function literal.
var runFnNames = map[string]bool{
	"Run": true, "RunStats": true, "RunConfig": true,
}

// commKey canonicalizes the communicator value a call operates on. Three
// shapes are recognized: a plain identifier (base only), a field selection
// base.sel (core's ctx.c), and a no-argument accessor method base.sel()
// (slicing's ctx.Comm()), which is assumed pure. Anything else is "too
// complex" and the protocol cannot be certified.
type commKey struct {
	base types.Object
	sel  types.Object
}

// keyOf resolves e to a commKey. ok is false for unsupported shapes.
func keyOf(info *types.Info, e ast.Expr) (commKey, bool) {
	if e == nil {
		return commKey{}, false
	}
	switch e := ast.Unparen(e).(type) {
	case *ast.Ident:
		if obj := analysis.IdentObj(info, e); obj != nil {
			return commKey{base: obj}, true
		}
	case *ast.SelectorExpr:
		base, ok := ast.Unparen(e.X).(*ast.Ident)
		if !ok {
			return commKey{}, false
		}
		bobj := analysis.IdentObj(info, base)
		sobj := analysis.IdentObj(info, e.Sel)
		if bobj != nil && sobj != nil {
			return commKey{base: bobj, sel: sobj}, true
		}
	case *ast.CallExpr:
		if len(e.Args) != 0 {
			return commKey{}, false
		}
		sel, ok := ast.Unparen(e.Fun).(*ast.SelectorExpr)
		if !ok {
			return commKey{}, false
		}
		return keyOf(info, sel)
	}
	return commKey{}, false
}

// isP2P reports whether fn is one of the point-to-point methods on
// comm.Comm, returning its name.
func isP2P(fn *types.Func) (string, bool) {
	if fn == nil || !p2pNames[fn.Name()] {
		return "", false
	}
	if !analysis.IsMethodOn(fn, "comm", "Comm", fn.Name()) {
		return "", false
	}
	return fn.Name(), true
}

// isRunFn reports whether fn is comm.Run or one of its variants.
func isRunFn(fn *types.Func) bool {
	if fn == nil || !runFnNames[fn.Name()] {
		return false
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() != nil {
		return false
	}
	return analysis.ObjPkgIs(fn, "comm")
}

// isPrimitiveDecl reports whether decl declares one of the point-to-point
// primitives themselves ((*Comm).Send and friends, in the real comm package
// or a testdata fake). Their bodies implement the semantics the analyzer
// models and are exempt from analysis.
func isPrimitiveDecl(pass *analysis.Pass, decl *ast.FuncDecl) bool {
	if decl.Recv == nil || !p2pNames[decl.Name.Name] {
		return false
	}
	fn, ok := pass.Info.Defs[decl.Name].(*types.Func)
	if !ok {
		return false
	}
	_, ok = isP2P(fn)
	return ok
}

// collectiveImpls returns comm's collective implementations: the functions
// that draw a sequence number from (*Comm).nextColl — only package comm can —
// plus the helpers every reference to which sits inside one of them
// (AllreduceInto's sendVals/recvVals). Callers model each collective as a
// barrier; these bodies implement that barrier with run-time sequence tags,
// so like Send's body they are exempt rather than uncertifiable.
func collectiveImpls(pass *analysis.Pass) map[types.Object]bool {
	impls := map[types.Object]bool{}
	var decls []*ast.FuncDecl
	for _, file := range pass.Files {
		analysis.FuncScopes(file, func(decl *ast.FuncDecl) {
			decls = append(decls, decl)
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok && analysis.IsMethodOn(analysis.Callee(pass.Info, call), "comm", "Comm", "nextColl") {
					impls[pass.Info.Defs[decl.Name]] = true
				}
				return true
			})
		})
	}
	if len(impls) == 0 {
		return impls
	}
	// refs maps each package function to the declarations referring to it;
	// nil stands for a reference outside every declaration.
	refs := map[types.Object][]types.Object{}
	for id, obj := range pass.Info.Uses {
		fn, ok := obj.(*types.Func)
		if !ok || fn.Pkg() != pass.Pkg {
			continue
		}
		var from types.Object
		for _, d := range decls {
			if d.Pos() <= id.Pos() && id.Pos() < d.End() {
				from = pass.Info.Defs[d.Name]
			}
		}
		refs[fn.Origin()] = append(refs[fn.Origin()], from)
	}
	for changed := true; changed; {
		changed = false
		for fn, from := range refs {
			if !impls[fn] && !slices.ContainsFunc(from, func(o types.Object) bool { return !impls[o] }) {
				impls[fn] = true
				changed = true
			}
		}
	}
	return impls
}

// scope is one protocol to certify: a statement tree interpreted once per
// (P, rank).
type scope struct {
	pass    *analysis.Pass
	body    *ast.BlockStmt
	pos     token.Pos // anchor for scope-level diagnostics
	comm    commKey   // the protocol's communicator value
	knownP  int64     // 0 when the size is not a compile-time constant
	spmd    *analysis.SPMD
	commFns map[types.Object]bool // same-package transitively-communicating functions
	runLits map[*ast.FuncLit]bool // protocol literals analyzed as their own scopes
	param   types.Object          // comm parameter object for Run literals, else nil
}

func run(pass *analysis.Pass) error {
	commFns := communicatingFuncs(pass)
	impls := collectiveImpls(pass)
	for _, file := range pass.Files {
		var covered []ast.Node // regions whose p2p calls are accounted for
		analysis.FuncScopes(file, func(decl *ast.FuncDecl) {
			if isPrimitiveDecl(pass, decl) || impls[pass.Info.Defs[decl.Name]] {
				covered = append(covered, decl)
				return
			}
			lits, byLit := runLiterals(pass, decl)
			for _, rl := range lits {
				covered = append(covered, rl.lit)
				analyzeScope(&scope{
					pass:    pass,
					body:    rl.lit.Body,
					pos:     rl.lit.Pos(),
					comm:    commKey{base: rl.param},
					knownP:  rl.knownP,
					spmd:    analysis.NewSPMD(pass.Info, rl.lit),
					commFns: commFns,
					runLits: byLit,
					param:   rl.param,
				})
			}
			if first := firstP2PCall(pass, decl, byLit); first != nil {
				covered = append(covered, decl)
				sc := &scope{
					pass:    pass,
					body:    decl.Body,
					pos:     decl.Pos(),
					spmd:    analysis.NewSPMD(pass.Info, decl),
					commFns: commFns,
					runLits: byLit,
				}
				key, ok := keyOf(pass.Info, analysis.CommValueExpr(pass.Info, first))
				if !ok {
					pass.Reportf(first.Pos(), "%s", cannotMsg("communicator expression is too complex to track"))
					return
				}
				if sub, _ := sc.spmd.SubComm(key.base); sub {
					pass.Reportf(first.Pos(), "%s", cannotMsg("point-to-point on a Split sub-communicator (ranks are renumbered within the subgroup)"))
					return
				}
				sc.comm = key
				analyzeScope(sc)
			}
		})
		sweepUncovered(pass, file, covered)
	}
	return nil
}

// runLit is a protocol literal passed to comm.Run or a variant.
type runLit struct {
	lit    *ast.FuncLit
	param  types.Object // the literal's *comm.Comm parameter
	knownP int64        // constant size argument, or 0
}

// runLiterals collects the function literals decl passes (at any nesting
// depth) as the trailing argument of comm.Run/RunStats/RunConfig,
// in source order.
func runLiterals(pass *analysis.Pass, decl *ast.FuncDecl) ([]runLit, map[*ast.FuncLit]bool) {
	var lits []runLit
	byLit := map[*ast.FuncLit]bool{}
	ast.Inspect(decl, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok || len(call.Args) < 2 || !isRunFn(analysis.Callee(pass.Info, call)) {
			return true
		}
		lit, ok := ast.Unparen(call.Args[len(call.Args)-1]).(*ast.FuncLit)
		if !ok {
			return true
		}
		rl := runLit{lit: lit}
		if v, ok := analysis.IntConstVal(pass.Info, call.Args[0]); ok && v > 0 {
			rl.knownP = v
		}
		for _, field := range lit.Type.Params.List {
			for _, name := range field.Names {
				obj := pass.Info.Defs[name]
				if obj != nil && analysis.TypeIs(obj.Type(), "comm", "Comm") {
					rl.param = obj
				}
			}
		}
		if rl.param != nil {
			lits = append(lits, rl)
			byLit[lit] = true
		}
		return true
	})
	return lits, byLit
}

// firstP2PCall returns the first point-to-point call in decl that is not
// inside one of its Run protocol literals, or nil. Its communicator
// expression canonicalizes the declaration scope's communicator.
func firstP2PCall(pass *analysis.Pass, decl *ast.FuncDecl, runLits map[*ast.FuncLit]bool) *ast.CallExpr {
	var first *ast.CallExpr
	ast.Inspect(decl, func(n ast.Node) bool {
		if first != nil {
			return false
		}
		if lit, ok := n.(*ast.FuncLit); ok && runLits[lit] {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ok := isP2P(analysis.Callee(pass.Info, call)); ok {
			first = call
			return false
		}
		return true
	})
	return first
}

// communicatingFuncs computes the set of same-package functions that
// transitively perform comm traffic (point-to-point or collective). A call
// to one from a protocol scope makes the protocol uncertifiable: the
// helper's sends and receives are part of the matching but are not
// interpreted inline.
func communicatingFuncs(pass *analysis.Pass) map[types.Object]bool {
	set := map[types.Object]bool{}
	type declFn struct {
		obj  types.Object
		decl *ast.FuncDecl
	}
	var decls []declFn
	for _, file := range pass.Files {
		analysis.FuncScopes(file, func(decl *ast.FuncDecl) {
			obj := pass.Info.Defs[decl.Name]
			if obj == nil {
				return
			}
			decls = append(decls, declFn{obj, decl})
			ast.Inspect(decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				fn := analysis.Callee(pass.Info, call)
				if _, ok := isP2P(fn); ok {
					set[obj] = true
				} else if analysis.CollectiveName(pass.Info, call) != "" {
					set[obj] = true
				}
				return true
			})
		})
	}
	for changed := true; changed; {
		changed = false
		for _, d := range decls {
			if set[d.obj] {
				continue
			}
			ast.Inspect(d.decl.Body, func(n ast.Node) bool {
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				if fn := analysis.Callee(pass.Info, call); fn != nil && set[fn] {
					set[d.obj] = true
					changed = true
				}
				return true
			})
		}
	}
	return set
}

// sweepUncovered reports point-to-point calls that no analyzed scope
// accounts for — in practice, package-level function literals. Silence
// would read as certification.
func sweepUncovered(pass *analysis.Pass, file *ast.File, covered []ast.Node) {
	inside := func(pos token.Pos) bool {
		for _, n := range covered {
			if n.Pos() <= pos && pos < n.End() {
				return true
			}
		}
		return false
	}
	ast.Inspect(file, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		if _, ok := isP2P(analysis.Callee(pass.Info, call)); ok && !inside(call.Pos()) {
			pass.Reportf(call.Pos(), "%s", cannotMsg("point-to-point call outside any analyzable function scope"))
		}
		return true
	})
}

// cannotMsg formats a "cannot certify" diagnostic.
func cannotMsg(reason string) string {
	return fmt.Sprintf("cannot certify point-to-point protocol: %s; vet the protocol by hand and annotate it with //lint:allow p2pmatch", reason)
}

// certErr aborts a scope's interpretation: the protocol is outside the
// provable shape (or definitely broken, for kindDiag).
type certErr struct {
	pos    token.Pos
	reason string
	// kindDiag marks reasons that are definite findings (a peer that is
	// always out of range) rather than certification failures; they are
	// reported verbatim without the cannot-certify wrapper.
	kindDiag bool
}

// inapplicable aborts one (P, rank) interpretation for size-polymorphic
// scopes: this P makes the protocol panic before communicating (peer out
// of range, division by zero), so the runtime would never reach a deadlock
// at this size either.
type inapplicable struct{}

// analyzeScope interprets and model-checks one protocol scope, reporting at
// most one deadlock diagnostic (smallest failing P) or else any
// lost-message findings.
func analyzeScope(sc *scope) {
	counts := rankCounts
	if sc.knownP > 0 {
		counts = []int64{sc.knownP}
	}
	var lost []lostMsg
	seen := map[token.Pos]bool{}
	admissible := false
	for _, p := range counts {
		evs, ok, err := interpretRanks(sc, p)
		if err != nil {
			if err.kindDiag {
				sc.pass.Reportf(err.pos, "%s", err.reason)
			} else {
				sc.pass.Reportf(err.pos, "%s", cannotMsg(err.reason))
			}
			return
		}
		if !ok {
			continue // size inapplicable: protocol panics before blocking
		}
		admissible = true
		dead, lostAtP := replay(evs, p)
		if dead != nil {
			sc.pass.Reportf(dead.pos, "%s", dead.msg)
			return
		}
		for _, l := range lostAtP {
			if !seen[l.ev.pos] {
				seen[l.ev.pos] = true
				lost = append(lost, l)
			}
		}
	}
	if !admissible && sc.knownP == 0 {
		sc.pass.Reportf(sc.pos, "%s", cannotMsg("no admissible communicator size in {1,2,3,4,5,7,8}: every size panics before communicating"))
		return
	}
	for _, l := range lost {
		sc.pass.Reportf(l.ev.pos, "lost message at P=%d: %s to rank %d tag %d by rank %d is never received (unmatched send)",
			l.p, l.ev.op, l.ev.peer, l.ev.tag, l.rank)
	}
}

// interpretRanks runs the per-rank interpreter for every rank at size p.
// ok is false when the size is inapplicable.
func interpretRanks(sc *scope, p int64) (evs [][]event, ok bool, err *certErr) {
	evs = make([][]event, p)
	for rank := int64(0); rank < p; rank++ {
		r := &runner{sc: sc, p: p, rank: rank, env: map[types.Object]value{}}
		trace, applicable, cerr := r.run()
		if cerr != nil {
			return nil, false, cerr
		}
		if !applicable {
			return nil, false, nil
		}
		evs[rank] = trace
	}
	return evs, true, nil
}
