package blink_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var (
	docSpan    = regexp.MustCompile("`([^`\n]+)`")
	docIdent   = regexp.MustCompile(`(?:^|[^\w.])([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	docCamel   = regexp.MustCompile(`^([a-z][a-z0-9]*[A-Z]\w*)(?:[.(]|$)`)
	docPath    = regexp.MustCompile(`(?:^|[^\w/])((?:internal|cmd|examples)(?:/[\w-]+)+(?:\.(?:go|md|json))?)`)
	docMetric  = regexp.MustCompile(`^[a-z][a-z0-9]*\.[a-z0-9_.*/]*[_*][a-z0-9_.*/]*$`)
	fileSuffix = map[string]bool{"go": true, "md": true, "json": true, "mod": true}
)

// moduleDecls maps every non-main package name of the module to the names
// it declares: top-level identifiers as "Name", and methods, struct fields
// (promoted ones too) and interface methods as "Type.Name".
func moduleDecls(t *testing.T) map[string]map[string]bool {
	t.Helper()
	decls := map[string]map[string]bool{}
	embeds := map[string]map[string][]string{} // package -> type -> embedded types
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		if pkg == "main" {
			return nil
		}
		if decls[pkg] == nil {
			decls[pkg], embeds[pkg] = map[string]bool{}, map[string][]string{}
		}
		names := decls[pkg]
		for _, decl := range f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv == nil {
					names[d.Name.Name] = true
				} else {
					names[typeName(d.Recv.List[0].Type)+"."+d.Name.Name] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
						}
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						var fields []*ast.Field
						switch ty := s.Type.(type) {
						case *ast.StructType:
							fields = ty.Fields.List
						case *ast.InterfaceType:
							fields = ty.Methods.List
						}
						for _, fld := range fields {
							if len(fld.Names) == 0 {
								embedded := typeName(fld.Type)
								names[s.Name.Name+"."+embedded] = true
								embeds[pkg][s.Name.Name] = append(embeds[pkg][s.Name.Name], embedded)
							}
							for _, n := range fld.Names {
								names[s.Name.Name+"."+n.Name] = true
							}
						}
					}
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	// Promote embedded types' members, to any depth.
	for pkg, types := range embeds {
		for changed := true; changed; {
			changed = false
			for outer, inner := range types {
				for _, in := range inner {
					for name := range decls[pkg] {
						if member, ok := strings.CutPrefix(name, in+"."); ok && !decls[pkg][outer+"."+member] {
							decls[pkg][outer+"."+member] = true
							changed = true
						}
					}
				}
			}
		}
	}
	return decls
}

// typeName is a receiver's or embedded field's type name, without pointer,
// package qualifier or type parameters.
func typeName(e ast.Expr) string {
	switch x := e.(type) {
	case *ast.StarExpr:
		return typeName(x.X)
	case *ast.IndexExpr:
		return typeName(x.X)
	case *ast.IndexListExpr:
		return typeName(x.X)
	case *ast.SelectorExpr:
		return x.Sel.Name
	case *ast.Ident:
		return x.Name
	}
	return ""
}

// TestDocsNameWhatExists: in README.md and docs/ARCHITECTURE.md, every
// backticked `pkg.Name` or `pkg.Type.Name` whose pkg is a package of this
// module names a declaration of it; every `Type.member` whose Type has
// members in the module names a member of it; every span that starts with a
// lowerCamelCase identifier (`lookupOrCompile`, `engineState.plane`) starts
// with a name the module declares; and every backticked internal/, cmd/ or
// examples/ path exists. Fenced code blocks and bench/ metric names are not
// checked.
func TestDocsNameWhatExists(t *testing.T) {
	decls := moduleDecls(t)
	// members maps a type name to every "Type.member" any package declares
	// for it; declared holds every name declared anywhere, top-level or
	// member.
	members, declared := map[string]map[string]bool{}, map[string]bool{}
	for _, names := range decls {
		for name := range names {
			typ, member, ok := strings.Cut(name, ".")
			if !ok {
				declared[name] = true
				continue
			}
			declared[member] = true
			if members[typ] == nil {
				members[typ] = map[string]bool{}
			}
			members[typ][name] = true
		}
	}
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, span := range docSpan.FindAllStringSubmatch(line, -1) {
				if docMetric.MatchString(span[1]) {
					continue // a bench/ metric name, such as core.repair_us
				}
				if m := docCamel.FindStringSubmatch(span[1]); m != nil && decls[m[1]] == nil && !declared[m[1]] {
					t.Errorf("%s:%d: `%s` is declared nowhere in the module", doc, i+1, m[1])
				}
				for _, m := range docIdent.FindAllStringSubmatch(span[1], -1) {
					if fileSuffix[m[2]] {
						continue
					}
					if names, ok := decls[m[1]]; ok {
						if !names[m[2]] || (m[3] != "" && !names[m[2]+"."+m[3]]) {
							t.Errorf("%s:%d: `%s` names nothing in package %s", doc, i+1, strings.TrimLeft(m[0], " ("), m[1])
						}
					} else if ms, ok := members[m[1]]; ok && !ms[m[1]+"."+m[2]] {
						t.Errorf("%s:%d: `%s.%s` names no member of type %s", doc, i+1, m[1], m[2], m[1])
					}
				}
				for _, m := range docPath.FindAllStringSubmatch(span[1], -1) {
					if _, err := os.Stat(m[1]); err != nil {
						t.Errorf("%s:%d: `%s` is not a path of this repo", doc, i+1, m[1])
					}
				}
			}
		}
	}
}
