package lint

import (
	"go/ast"
	"go/types"
)

// laneShareScope is the set of packages where deterministic parallel
// lane workers would run. No package runs lane workers today: the
// coherence domain snoops sequentially. The rule guards the parked
// NUMA/hardware-islands topology work, whose per-socket coherence and
// bus lanes would live in these packages.
var laneShareScope = map[string]bool{
	"odbscale/internal/cache": true,
	"odbscale/internal/bus":   true,
}

// LaneShare enforces the ownership discipline that makes parallel lane
// workers bit-identical to sequential execution: each worker owns
// a fixed, disjoint slice of the domain (cpu ≡ worker mod workers) and
// may only write state indexed by that owned range. Concretely, inside
// any function launched with `go` in a scoped package:
//
//   - a write to shared state (receiver fields, captured variables,
//     package variables, or aliases of them) is a finding unless the
//     written lvalue is indexed by a variable derived from the
//     worker's own integer lane parameter;
//   - channel sends, close, mutex Lock/Unlock and WaitGroup.Add are
//     findings — any ad-hoc synchronization inside a worker can
//     reorder the deterministic CPU-order merge that the fork/join
//     barrier guarantees. WaitGroup.Done (the join half of the
//     barrier) and channel receives (the fork half) stay allowed.
//
// Locals initialized through an owned-indexed access (h :=
// d.CPUs[cpu]) inherit ownership, so mutating the owned hierarchy
// through such an alias is fine; locals initialized from shared state
// without an owned index are shared aliases and writes through them
// are findings.
var LaneShare = &Analyzer{
	Name: "laneshare",
	Doc: "restrict lane-worker writes to lane-owned (index-derived) state " +
		"and forbid merge-reordering sync primitives inside workers",
	Run: runLaneShare,
}

// varClass is the ownership classification of one variable inside a
// lane worker.
type varClass int

const (
	classShared varClass = iota // receiver, captured, package-level, or alias thereof
	classOwned                  // lane parameter or derived from an owned-indexed access
	classFresh                  // worker-local, no shared aliasing
)

// laneWorker is one `go`-launched function in scope: its body, its
// parameter objects, and the position range of its declaration.
type laneWorker struct {
	body       *ast.BlockStmt
	params     []types.Object
	start, end ast.Node // declaration range for capture tests
}

func runLaneShare(pass *Pass) {
	if !laneShareScope[pass.Path] {
		return
	}
	// Map function objects to their declarations so `go l.run(i)`
	// resolves to run's body.
	decls := make(map[types.Object]*ast.FuncDecl)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Body != nil {
				if obj := pass.Info.Defs[fd.Name]; obj != nil {
					decls[obj] = fd
				}
			}
		}
	}
	seen := make(map[*ast.BlockStmt]bool)
	for _, f := range pass.Files {
		if pass.InTestFile(f.Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			gs, ok := n.(*ast.GoStmt)
			if !ok {
				return true
			}
			w := resolveWorker(pass.Info, decls, gs)
			if w == nil || seen[w.body] {
				return true
			}
			seen[w.body] = true
			checkWorker(pass, w)
			return true
		})
	}
}

// resolveWorker maps a go statement to the launched function's body
// and parameters: a func literal launched inline, or a same-package
// function or method declaration.
func resolveWorker(info *types.Info, decls map[types.Object]*ast.FuncDecl, gs *ast.GoStmt) *laneWorker {
	switch fun := ast.Unparen(gs.Call.Fun).(type) {
	case *ast.FuncLit:
		w := &laneWorker{body: fun.Body, start: fun, end: fun}
		for _, field := range fun.Type.Params.List {
			for _, nm := range field.Names {
				if obj := info.Defs[nm]; obj != nil {
					w.params = append(w.params, obj)
				}
			}
		}
		return w
	default:
		fn := calleeOf(info, gs.Call)
		if fn == nil {
			return nil
		}
		fd := decls[fn]
		if fd == nil {
			return nil
		}
		w := &laneWorker{body: fd.Body, start: fd, end: fd}
		if fd.Type.Params != nil {
			for _, field := range fd.Type.Params.List {
				for _, nm := range field.Names {
					if obj := info.Defs[nm]; obj != nil {
						w.params = append(w.params, obj)
					}
				}
			}
		}
		return w
	}
}

// isIntType reports whether t's core type is an integer kind — the
// shape of a lane id.
func isIntType(t types.Type) bool {
	b, ok := t.Underlying().(*types.Basic)
	return ok && b.Info()&types.IsInteger != 0
}

// aliasCapable reports whether a value of type t can alias shared
// state: reference shapes (pointers, slices, maps, channels, funcs,
// interfaces) and aggregates containing them. Basic values cannot —
// `cpu += l.workers` reads a shared count but leaves cpu a plain
// integer, not an alias.
func aliasCapable(t types.Type) bool {
	return aliasCapableRec(t, 0)
}

func aliasCapableRec(t types.Type, depth int) bool {
	if t == nil || depth > 8 {
		return true
	}
	switch u := t.Underlying().(type) {
	case *types.Basic:
		return false
	case *types.Struct:
		for i := 0; i < u.NumFields(); i++ {
			if aliasCapableRec(u.Field(i).Type(), depth+1) {
				return true
			}
		}
		return false
	case *types.Array:
		return aliasCapableRec(u.Elem(), depth+1)
	}
	return true
}

// classify runs the ownership fixpoint over the worker body: integer
// parameters seed the owned set, everything declared outside the body
// is shared, and each assignment propagates — an owned-indexed access
// transfers ownership, any other shared-referencing initializer
// creates a shared alias.
func classify(pass *Pass, w *laneWorker) map[types.Object]varClass {
	class := make(map[types.Object]varClass)
	owned := func(e ast.Expr) bool {
		return refsTrackedClass(pass.Info, e, class, classOwned)
	}
	shared := func(e ast.Expr) bool {
		if refsTrackedClass(pass.Info, e, class, classShared) {
			return true
		}
		// References to anything declared outside the worker body are
		// shared by definition.
		found := false
		ast.Inspect(e, func(n ast.Node) bool {
			id, ok := n.(*ast.Ident)
			if !ok {
				return !found
			}
			v, ok := pass.Info.ObjectOf(id).(*types.Var)
			if ok && !v.IsField() && class[v] == classShared &&
				!declaredWithin(v, w.body.Pos(), w.body.End()) && !isParam(w, v) {
				found = true
			}
			return !found
		})
		return found
	}
	for _, p := range w.params {
		if isIntType(p.Type()) {
			class[p] = classOwned
		} else {
			class[p] = classShared
		}
	}
	assignClass := func(rhs ast.Expr) varClass {
		if rhs == nil {
			return classFresh
		}
		if ix, ok := ast.Unparen(rhs).(*ast.IndexExpr); ok && owned(ix.Index) {
			return classOwned // ownership transfer: h := d.CPUs[cpu]
		}
		switch {
		case shared(rhs):
			return classShared
		case owned(rhs):
			return classOwned // arithmetic on the lane id stays owned
		default:
			return classFresh
		}
	}
	for changed := true; changed; {
		changed = false
		ast.Inspect(w.body, func(n ast.Node) bool {
			switch st := n.(type) {
			case *ast.AssignStmt:
				for i, lhs := range st.Lhs {
					id, ok := ast.Unparen(lhs).(*ast.Ident)
					if !ok || i >= len(st.Rhs) && len(st.Rhs) != 1 {
						continue
					}
					obj := pass.Info.ObjectOf(id)
					if obj == nil || !declaredWithin(obj, w.body.Pos(), w.body.End()) {
						continue
					}
					rhs := st.Rhs[0]
					if i < len(st.Rhs) {
						rhs = st.Rhs[i]
					}
					c := assignClass(rhs)
					if c == classShared && !aliasCapable(obj.Type()) {
						continue // value copy of shared data, not an alias
					}
					cur, tracked := class[obj]
					if tracked && cur == classShared {
						continue // shared is sticky; owned/fresh can be promoted
					}
					if c != classFresh && (!tracked || cur != c) {
						class[obj] = c
						changed = true
					}
				}
			case *ast.ValueSpec:
				for i, nm := range st.Names {
					obj := pass.Info.ObjectOf(nm)
					if obj == nil {
						continue
					}
					var init ast.Expr
					if i < len(st.Values) {
						init = st.Values[i]
					}
					c := assignClass(init)
					if c == classShared && !aliasCapable(obj.Type()) {
						continue
					}
					cur, tracked := class[obj]
					if tracked && cur == classShared {
						continue
					}
					if c != classFresh && (!tracked || cur != c) {
						class[obj] = c
						changed = true
					}
				}
			case *ast.RangeStmt:
				// for cpu := range ... over an owned expression keeps
				// cpu fresh; key/value over shared state is shared-read
				// only, which is fine — reads are unrestricted.
			}
			return true
		})
	}
	return class
}

// refsTrackedClass reports whether e references a variable currently
// classified as c.
func refsTrackedClass(info *types.Info, e ast.Expr, class map[types.Object]varClass, c varClass) bool {
	found := false
	ast.Inspect(e, func(n ast.Node) bool {
		id, ok := n.(*ast.Ident)
		if !ok {
			return !found
		}
		if obj := info.ObjectOf(id); obj != nil {
			if got, ok := class[obj]; ok && got == c {
				found = true
			}
		}
		return !found
	})
	return found
}

func isParam(w *laneWorker, obj types.Object) bool {
	for _, p := range w.params {
		if p == obj {
			return true
		}
	}
	return false
}

// checkWorker applies the write and sync rules to one lane worker.
func checkWorker(pass *Pass, w *laneWorker) {
	class := classify(pass, w)
	classOf := func(obj types.Object) varClass {
		if c, ok := class[obj]; ok {
			return c
		}
		if declaredWithin(obj, w.body.Pos(), w.body.End()) {
			return classFresh
		}
		return classShared
	}
	checkWrite := func(lhs ast.Expr) {
		base, indexes := chainBase(ast.Unparen(lhs))
		id, ok := base.(*ast.Ident)
		if !ok {
			return
		}
		obj := pass.Info.ObjectOf(id)
		if obj == nil {
			return
		}
		if v, ok := obj.(*types.Var); !ok || v.IsField() {
			return
		}
		// Rebinding a local (plain ident, no chain) is always fine.
		if ast.Unparen(lhs) == base {
			if classOf(obj) != classShared || declaredWithin(obj, w.body.Pos(), w.body.End()) || isParam(w, obj) {
				return
			}
			pass.Reportf(lhs.Pos(), "lane worker writes captured variable %s; "+
				"workers may only write state indexed by their owned lane range", id.Name)
			return
		}
		switch classOf(obj) {
		case classFresh, classOwned:
			return
		}
		for _, ix := range indexes {
			if refsTrackedClass(pass.Info, ix, class, classOwned) {
				return // indexed by the owned lane range
			}
		}
		pass.Reportf(lhs.Pos(), "lane worker writes shared state through %s without indexing "+
			"by its owned lane range; another lane may own that slot", id.Name)
	}
	ast.Inspect(w.body, func(n ast.Node) bool {
		switch st := n.(type) {
		case *ast.AssignStmt:
			for _, lhs := range st.Lhs {
				checkWrite(lhs)
			}
		case *ast.IncDecStmt:
			checkWrite(st.X)
		case *ast.SendStmt:
			pass.Reportf(st.Pos(), "channel send inside a lane worker can reorder the "+
				"deterministic CPU-order merge; communicate through the fork/join barrier")
		case *ast.CallExpr:
			checkSyncCall(pass, st)
		}
		return true
	})
}

// checkSyncCall flags merge-reordering synchronization: close, mutex
// locking, and WaitGroup.Add. Done and Wait — the join barrier itself
// — stay allowed.
func checkSyncCall(pass *Pass, call *ast.CallExpr) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		if b, ok := pass.Info.Uses[id].(*types.Builtin); ok && b.Name() == "close" {
			pass.Reportf(call.Pos(), "close inside a lane worker tears down shared signaling; "+
				"lifecycle belongs to the owner of the lanes, not a worker")
		}
		return
	}
	fn := calleeOf(pass.Info, call)
	if fn == nil || fn.Pkg() == nil || fn.Pkg().Path() != "sync" {
		return
	}
	sig, ok := fn.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	switch fn.Name() {
	case "Lock", "Unlock", "RLock", "RUnlock", "TryLock", "TryRLock", "Add":
		pass.Reportf(call.Pos(), "sync.%s inside a lane worker can reorder the deterministic "+
			"CPU-order merge; lanes must only touch state they own", fn.Name())
	}
}
