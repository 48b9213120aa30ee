package blink_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

var (
	docSpan    = regexp.MustCompile("`([^`\n]+)`")
	docIdent   = regexp.MustCompile(`(?:^|[^\w.])([A-Za-z_]\w*)\.([A-Za-z_]\w*)(?:\.([A-Za-z_]\w*))?`)
	docCamel   = regexp.MustCompile(`^([a-z][a-z0-9]*[A-Z]\w*)(?:[.(]|$)`)
	docPath    = regexp.MustCompile(`(?:^|[^\w/])((?:internal|cmd|examples)(?:/[\w-]+)+(?:\.(?:go|md|json))?)`)
	docMetric  = regexp.MustCompile(`^[a-z][a-z0-9]*\.[a-z0-9_.*/]*[_*][a-z0-9_.*/]*$`)
	docLineRef = regexp.MustCompile(`([\w/.-]+\.go):(\d+)`)
	docWord    = regexp.MustCompile(`[A-Za-z_]\w*`)
	fileSuffix = map[string]bool{"go": true, "md": true, "json": true, "mod": true}
)

// declLines is the line range of one top-level declaration, doc comment
// included, and the names it declares (a method declares its receiver
// type's name too).
type declLines struct {
	names      []string
	start, end int
}

// moduleDecls maps every non-main package name of the module to the names
// it declares: top-level identifiers as "Name", and methods, struct fields
// (promoted ones too) and interface methods as "Type.Name". It also returns
// every non-test Go file's top-level declarations by path, main packages
// included.
func moduleDecls(t *testing.T) (map[string]map[string]bool, map[string][]declLines) {
	t.Helper()
	decls, files := map[string]map[string]bool{}, map[string][]declLines{}
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
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments|parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := f.Name.Name
		if embeds[pkg] == nil {
			embeds[pkg] = map[string][]string{}
		}
		names := map[string]bool{} // a main package declares nothing importable
		if pkg != "main" {
			if decls[pkg] == nil {
				decls[pkg] = map[string]bool{}
			}
			names = decls[pkg]
		}
		for _, decl := range f.Decls {
			lines := declLines{start: fset.Position(decl.Pos()).Line, end: fset.Position(decl.End()).Line}
			var doc *ast.CommentGroup
			switch d := decl.(type) {
			case *ast.FuncDecl:
				doc, lines.names = d.Doc, []string{d.Name.Name}
				if d.Recv == nil {
					names[d.Name.Name] = true
				} else {
					recv := typeName(d.Recv.List[0].Type)
					names[recv+"."+d.Name.Name] = true
					lines.names = append(lines.names, recv)
				}
			case *ast.GenDecl:
				doc = d.Doc
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.ValueSpec:
						for _, n := range s.Names {
							names[n.Name] = true
							lines.names = append(lines.names, n.Name)
						}
					case *ast.TypeSpec:
						names[s.Name.Name] = true
						lines.names = append(lines.names, s.Name.Name)
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
			if doc != nil {
				lines.start = fset.Position(doc.Pos()).Line
			}
			files[path] = append(files[path], lines)
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
	return decls, files
}

// landsInNamedDecl checks a `file.go:N` reference: file is a repo path or
// a bare file name, and line N must fall inside a declaration of that file
// that one of names (the words of the backticked spans beside the
// reference) names.
func landsInNamedDecl(files map[string][]declLines, file string, n int, names map[string]bool) bool {
	for path, ds := range files {
		for _, d := range ds {
			for _, name := range d.names {
				if names[name] && (path == file || filepath.Base(path) == file) && d.start <= n && n <= d.end {
					return true
				}
			}
		}
	}
	return false
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
// examples/ path exists. In those two files and ROADMAP.md, every backticked
// `file.go:N` lands inside — doc comment included — the declaration a
// backticked name on its line or the line before names (`chunkFor`
// (`internal/collective/engine.go:465`)). Fenced code blocks and bench/
// metric names are not checked.
func TestDocsNameWhatExists(t *testing.T) {
	decls, files := moduleDecls(t)
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
	for _, doc := range []string{"README.md", "docs/ARCHITECTURE.md", "ROADMAP.md"} {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced, prev := false, ""
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			beside := map[string]bool{}
			for _, span := range docSpan.FindAllString(prev+"\n"+line, -1) {
				for _, w := range docWord.FindAllString(span, -1) {
					beside[w] = true
				}
			}
			prev = line
			for _, span := range docSpan.FindAllStringSubmatch(line, -1) {
				for _, ref := range docLineRef.FindAllStringSubmatch(span[1], -1) {
					n, _ := strconv.Atoi(ref[2])
					if !landsInNamedDecl(files, ref[1], n, beside) {
						t.Errorf("%s:%d: `%s` lies inside no declaration a backticked name beside it names", doc, i+1, ref[0])
					}
				}
				if doc == "ROADMAP.md" || docMetric.MatchString(span[1]) {
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
