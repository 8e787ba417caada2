// Package wirebounds vets the byte-level decoders — the frame codec in
// nab/internal/transport, the WAL record codecs in nab/internal/wal and
// the in-place EIG round-batch walker in nab/internal/bb — for unguarded
// slice access. These functions are the only code that indexes
// attacker-controlled bytes (every Byzantine peer and every torn WAL tail
// reaches them), so a missing length check is not a latent bug but a
// remotely triggerable panic.
//
// Within a decoder-shaped function (Decode*/decode*/Read*/read*/Load*/
// load* — the Load prefix catches file-container decoders such as the
// WAL's standalone snapshot files — or any
// method on a type named "decoder"), each index or slice expression
// over a []byte must be preceded, earlier in the same function, by a
// guard on that same expression: a len()/cap() comparison, a
// binary.Varint/Uvarint call (whose n<=0 result is the length check),
// or a range statement over it. Fixed-size arrays need no guard — the
// compiler already proved those bounds.
package wirebounds

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"nab/tools/nabvet/internal/analysis"
)

// Analyzer is the wirebounds check.
var Analyzer = &analysis.Analyzer{
	Name: "wirebounds",
	Doc:  "decoders over untrusted bytes must length-check before every slice or index expression",
	Run:  run,
}

// scope is the set of packages holding wire-facing decoders.
var scope = map[string]bool{
	"nab/internal/bb":        true,
	"nab/internal/transport": true,
	"nab/internal/wal":       true,
}

func run(pass *analysis.Pass) error {
	if !scope[pass.Pkg.Path()] {
		return nil
	}
	for _, f := range pass.Files {
		if pass.IsTestFile(f.Pos()) {
			continue
		}
		for _, d := range f.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !decoderShaped(fd) {
				continue
			}
			check(pass, fd)
		}
	}
	return nil
}

// decoderShaped reports whether fd handles raw input bytes: named like
// a decoder/reader, or a method on the record-codec decoder type.
func decoderShaped(fd *ast.FuncDecl) bool {
	name := fd.Name.Name
	for _, prefix := range []string{"Decode", "decode", "Read", "read", "Load", "load"} {
		if strings.HasPrefix(name, prefix) {
			return true
		}
	}
	if fd.Recv != nil && len(fd.Recv.List) == 1 {
		t := fd.Recv.List[0].Type
		if star, ok := t.(*ast.StarExpr); ok {
			t = star.X
		}
		if id, ok := t.(*ast.Ident); ok && id.Name == "decoder" {
			return true
		}
	}
	return false
}

// guard records one position at which an expression's length became
// known.
type guard struct {
	expr string
	pos  token.Pos
}

func check(pass *analysis.Pass, fd *ast.FuncDecl) {
	var guards []guard
	add := func(e ast.Expr, pos token.Pos) {
		guards = append(guards, guard{expr: types.ExprString(ast.Unparen(e)), pos: pos})
	}

	// First pass: collect guards anywhere in the function (closures
	// included — the wire codec's get32/get64 helpers read under the
	// header check established before their definition).
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.BinaryExpr:
			// Comparisons mentioning len(x) or cap(x) guard x.
			switch n.Op {
			case token.LSS, token.LEQ, token.GTR, token.GEQ, token.EQL, token.NEQ:
				for _, side := range []ast.Expr{n.X, n.Y} {
					if arg := lenCapArg(pass.TypesInfo, side); arg != nil {
						add(arg, n.Pos())
					}
				}
			}
		case *ast.CallExpr:
			// binary.Varint/Uvarint return n<=0 on short input; decoders
			// branch on n before slicing, so the call is the guard.
			if fn := callee(pass.TypesInfo, n); fn != nil && fn.Pkg() != nil &&
				fn.Pkg().Path() == "encoding/binary" &&
				(fn.Name() == "Varint" || fn.Name() == "Uvarint") && len(n.Args) == 1 {
				add(n.Args[0], n.Pos())
			}
		case *ast.RangeStmt:
			// range x bounds every in-loop index derived from it.
			add(n.X, n.Pos())
		}
		return true
	})

	guarded := func(e ast.Expr, at token.Pos) bool {
		s := types.ExprString(ast.Unparen(e))
		for _, g := range guards {
			if g.expr == s && g.pos < at {
				return true
			}
		}
		return false
	}

	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.IndexExpr:
			if byteSlice(pass.TypesInfo, n.X) && !guarded(n.X, n.Pos()) {
				pass.Reportf(n.Pos(), "index into %s without a preceding length check (len/cap comparison, Varint/Uvarint, or range)", types.ExprString(n.X))
			}
		case *ast.SliceExpr:
			if byteSlice(pass.TypesInfo, n.X) && !guarded(n.X, n.Pos()) {
				pass.Reportf(n.Pos(), "slice of %s without a preceding length check (len/cap comparison, Varint/Uvarint, or range)", types.ExprString(n.X))
			}
		}
		return true
	})
}

// lenCapArg returns the argument of a len(x)/cap(x) call, or nil.
func lenCapArg(info *types.Info, e ast.Expr) ast.Expr {
	call, ok := ast.Unparen(e).(*ast.CallExpr)
	if !ok || len(call.Args) != 1 {
		return nil
	}
	id, ok := ast.Unparen(call.Fun).(*ast.Ident)
	if !ok {
		return nil
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok && (b.Name() == "len" || b.Name() == "cap") {
		return call.Args[0]
	}
	// Conversions wrapping len, e.g. uint64(len(d.b)).
	if tv, ok := info.Types[call.Fun]; ok && tv.IsType() {
		return lenCapArg(info, call.Args[0])
	}
	return nil
}

// byteSlice reports whether e's type is a byte slice (arrays index with
// compiler-proved bounds and are exempt).
func byteSlice(info *types.Info, e ast.Expr) bool {
	t := info.TypeOf(e)
	if t == nil {
		return false
	}
	s, ok := t.Underlying().(*types.Slice)
	if !ok {
		return false
	}
	b, ok := s.Elem().Underlying().(*types.Basic)
	return ok && b.Kind() == types.Uint8
}

func callee(info *types.Info, call *ast.CallExpr) *types.Func {
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
