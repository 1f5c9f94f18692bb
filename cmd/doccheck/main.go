// Command doccheck enforces the godoc contract on the audited
// packages: every exported top-level symbol (and every exported
// method on an exported type) must carry a doc comment. CI runs it
// over the audited package set; it exits non-zero and lists each
// undocumented symbol otherwise.
//
// Usage:
//
//	doccheck [dir ...]
//
// With no arguments it checks the repository's audited set,
// auditedDirs: the facade package (.) and fourteen internal packages,
// among them the simulator (internal/sim) and its chaos policies
// (internal/chaos).
package main

import (
	"flag"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
)

// auditedDirs is the default package set; keep it in sync with the
// CI doccheck step and DESIGN.md §8.
var auditedDirs = []string{
	".",
	"internal/chaos",
	"internal/conform",
	"internal/energy",
	"internal/lowerbound",
	"internal/metrics",
	"internal/modelcheck",
	"internal/problem",
	"internal/prof",
	"internal/service",
	"internal/sim",
	"internal/stats",
	"internal/sweep",
	"internal/trace",
	"internal/transport",
}

func main() {
	flag.Parse()
	dirs := flag.Args()
	if len(dirs) == 0 {
		dirs = auditedDirs
	}
	var missing []string
	for _, dir := range dirs {
		m, err := checkDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, "doccheck:", err)
			os.Exit(1)
		}
		missing = append(missing, m...)
	}
	if len(missing) > 0 {
		for _, m := range missing {
			fmt.Fprintln(os.Stderr, m)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d exported symbol(s) without doc comments\n", len(missing))
		os.Exit(1)
	}
	fmt.Printf("doccheck: %d package dir(s) clean\n", len(dirs))
}

// checkDir parses every non-test Go file in dir (no recursion) and
// returns one "file:line: symbol" entry per undocumented exported
// symbol.
func checkDir(dir string) ([]string, error) {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return nil, err
	}
	var missing []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: undocumented exported %s %s", p.Filename, p.Line, what, name))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				switch d := decl.(type) {
				case *ast.FuncDecl:
					if !d.Name.IsExported() || !exportedReceiver(d) {
						continue
					}
					if d.Doc == nil {
						what := "function"
						if d.Recv != nil {
							what = "method"
						}
						report(d.Pos(), what, d.Name.Name)
					}
				case *ast.GenDecl:
					missing = append(missing, checkGenDecl(fset, d)...)
				}
			}
		}
	}
	return missing, nil
}

// exportedReceiver reports whether a function's receiver type (if
// any) is exported; methods on unexported types are not API surface.
func exportedReceiver(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	if star, ok := t.(*ast.StarExpr); ok {
		t = star.X
	}
	if idx, ok := t.(*ast.IndexExpr); ok { // generic receiver T[P]
		t = idx.X
	}
	id, ok := t.(*ast.Ident)
	return !ok || id.IsExported()
}

// checkGenDecl audits a type/var/const declaration. A doc comment on
// the declaration group covers every spec in it; otherwise each
// exported spec needs its own doc (or trailing line) comment.
func checkGenDecl(fset *token.FileSet, d *ast.GenDecl) []string {
	if d.Tok == token.IMPORT || d.Doc != nil {
		return nil
	}
	var missing []string
	report := func(pos token.Pos, what, name string) {
		p := fset.Position(pos)
		missing = append(missing, fmt.Sprintf("%s:%d: undocumented exported %s %s", p.Filename, p.Line, what, name))
	}
	for _, spec := range d.Specs {
		switch s := spec.(type) {
		case *ast.TypeSpec:
			if s.Name.IsExported() && s.Doc == nil && s.Comment == nil {
				report(s.Pos(), "type", s.Name.Name)
			}
		case *ast.ValueSpec:
			if s.Doc != nil || s.Comment != nil {
				continue
			}
			what := "var"
			if d.Tok == token.CONST {
				what = "const"
			}
			for _, name := range s.Names {
				if name.IsExported() {
					report(name.Pos(), what, name.Name)
				}
			}
		}
	}
	return missing
}
