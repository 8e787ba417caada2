// Package determinism forbids nondeterminism inside the packages whose
// outputs must be byte-identical to the lockstep oracle: wall-clock
// reads, the global math/rand stream, crypto/rand, process-identity
// queries, and map iteration feeding ordered output. Everything this
// repo proves, it proves differentially — one nondeterministic branch
// in a deterministic package and every engine drifts from the oracle.
//
// Scope: nab/internal/core, nab/internal/sim (the lockstep oracle's
// engine and every engine's one charge path), nab/internal/coding,
// nab/internal/gf, nab/internal/linalg, nab/internal/adversary in full,
// plus the chaos
// decision path (internal/transport's chaos.go, where every physics
// decision must be a pure function of the seed). Seeded *rand.Rand
// streams are the sanctioned randomness — rand.New(rand.NewSource(seed))
// stays legal; the package-level rand.Intn and friends do not.
//
// Map iteration is flagged only when its order can escape: an append to
// a slice declared outside the loop that is never sorted afterwards in
// the same function, or a channel send from inside the loop. The
// range-then-sort idiom the repo uses for dispute sets stays silent.
package determinism

import (
	"go/ast"
	"go/types"
	"strings"

	"nab/tools/nabvet/internal/analysis"
)

// Analyzer is the determinism check.
var Analyzer = &analysis.Analyzer{
	Name: "determinism",
	Doc:  "forbid time.Now, global math/rand, crypto/rand and order-escaping map iteration in oracle-deterministic packages",
	Run:  run,
}

// scopePkgs are the packages deterministic in full.
var scopePkgs = map[string]bool{
	"nab/internal/core":      true,
	"nab/internal/sim":       true,
	"nab/internal/coding":    true,
	"nab/internal/gf":        true,
	"nab/internal/linalg":    true,
	"nab/internal/adversary": true,
}

// scopeFiles scopes single files inside otherwise-nondeterministic
// packages: the chaos decision path lives in the transport package but
// must derive every decision from the seed.
var scopeFiles = map[string]string{
	"nab/internal/transport": "chaos.go",
}

// timeFuncs are the wall-clock reads; none have a place in code whose
// outputs replay byte-identically.
var timeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true,
	"After": true, "Tick": true, "NewTimer": true, "NewTicker": true,
}

// osFuncs are process-identity and environment queries.
var osFuncs = map[string]bool{
	"Getpid": true, "Getenv": true, "Environ": true, "Hostname": true, "LookupEnv": true,
}

// runtimeFuncs leak scheduler and host shape.
var runtimeFuncs = map[string]bool{
	"NumCPU": true, "NumGoroutine": true,
}

// randOK are the math/rand package-level constructors for seeded
// streams; every other package-level function draws from the shared
// global source.
var randOK = map[string]bool{
	"New": true, "NewSource": true,
}

func run(pass *analysis.Pass) error {
	wholePkg := scopePkgs[pass.Pkg.Path()]
	onlyFile := scopeFiles[pass.Pkg.Path()]
	if !wholePkg && onlyFile == "" {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		if !wholePkg && pass.Filename(f.Pos()) != onlyFile {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			checkCalls(pass, fd)
			checkMapRanges(pass, fd)
		}
	}
	return nil
}

func checkCalls(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		fn := staticCallee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if fn.Type().(*types.Signature).Recv() != nil {
			return true // methods (e.g. (*rand.Rand).Intn) are seeded-stream territory
		}
		switch path, name := fn.Pkg().Path(), fn.Name(); {
		case path == "time" && timeFuncs[name]:
			pass.Reportf(call.Pos(), "time.%s in deterministic code (outputs must be a pure function of the seeded inputs)", name)
		case path == "math/rand" && !randOK[name]:
			pass.Reportf(call.Pos(), "math/rand.%s draws from the shared global stream; use a seeded *rand.Rand", name)
		case path == "math/rand/v2":
			pass.Reportf(call.Pos(), "math/rand/v2.%s is seeded per-process; use a seeded *rand.Rand", name)
		case path == "crypto/rand":
			pass.Reportf(call.Pos(), "crypto/rand.%s is nondeterministic by design; use a seeded *rand.Rand", name)
		case path == "os" && osFuncs[name]:
			pass.Reportf(call.Pos(), "os.%s in deterministic code (process identity must not reach protocol decisions)", name)
		case path == "runtime" && runtimeFuncs[name]:
			pass.Reportf(call.Pos(), "runtime.%s in deterministic code (host shape must not reach protocol decisions)", name)
		}
		return true
	})
}

// checkMapRanges flags map-range loops whose iteration order escapes:
// channel sends from the body, or appends to outer slices that the
// function never sorts afterwards.
func checkMapRanges(pass *analysis.Pass, fd *ast.FuncDecl) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		rs, ok := n.(*ast.RangeStmt)
		if !ok {
			return true
		}
		t := pass.TypesInfo.TypeOf(rs.X)
		if t == nil {
			return true
		}
		if _, isMap := t.Underlying().(*types.Map); !isMap {
			return true
		}
		ast.Inspect(rs.Body, func(m ast.Node) bool {
			switch m := m.(type) {
			case *ast.SendStmt:
				pass.Reportf(m.Pos(), "channel send inside map iteration (receiver observes nondeterministic order)")
			case *ast.AssignStmt:
				target, appended := appendTarget(pass.TypesInfo, m)
				if !appended || target == nil {
					return true
				}
				if declaredWithin(pass.TypesInfo, target, rs) {
					return true
				}
				name := types.ExprString(target)
				if !sortedAfter(pass, fd, rs, name) {
					pass.Reportf(m.Pos(), "append to %s inside map iteration without a later sort (emitted order is nondeterministic)", name)
				}
			}
			return true
		})
		return true
	})
}

// appendTarget matches `x = append(x, ...)` and returns x.
func appendTarget(info *types.Info, as *ast.AssignStmt) (ast.Expr, bool) {
	if len(as.Lhs) != 1 || len(as.Rhs) != 1 {
		return nil, false
	}
	call, ok := as.Rhs[0].(*ast.CallExpr)
	if !ok {
		return nil, false
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok || id.Name != "append" {
		return nil, false
	}
	if obj, isBuiltin := info.Uses[id].(*types.Builtin); !isBuiltin || obj.Name() != "append" {
		return nil, false
	}
	return as.Lhs[0], true
}

// declaredWithin reports whether the root object of e is declared inside
// loop — appends to loop-local slices cannot leak order out by
// themselves.
func declaredWithin(info *types.Info, e ast.Expr, loop *ast.RangeStmt) bool {
	id, ok := ast.Unparen(e).(*ast.Ident)
	if !ok {
		return false
	}
	obj := info.Uses[id]
	if obj == nil {
		obj = info.Defs[id]
	}
	return obj != nil && obj.Pos() >= loop.Pos() && obj.Pos() < loop.End()
}

// sortedAfter reports whether target (by expression identity) is passed
// to a sort.*/slices.* call after the loop in the same function.
func sortedAfter(pass *analysis.Pass, fd *ast.FuncDecl, loop *ast.RangeStmt, target string) bool {
	found := false
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		if found {
			return false
		}
		call, ok := n.(*ast.CallExpr)
		if !ok || call.Pos() < loop.End() {
			return true
		}
		fn := staticCallee(pass.TypesInfo, call)
		if fn == nil || fn.Pkg() == nil {
			return true
		}
		if p := fn.Pkg().Path(); p != "sort" && p != "slices" {
			return true
		}
		for _, arg := range call.Args {
			if types.ExprString(arg) == target || strings.HasPrefix(types.ExprString(arg), target+"[") {
				found = true
			}
		}
		return true
	})
	return found
}

func staticCallee(info *types.Info, call *ast.CallExpr) *types.Func {
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		fn, _ := info.Uses[fun].(*types.Func)
		return fn
	case *ast.SelectorExpr:
		fn, _ := info.Uses[fun.Sel].(*types.Func)
		return fn
	}
	return nil
}
