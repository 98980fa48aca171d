package analysis

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepositoryIsVetClean is the in-tree mirror of the CI gate: the
// default suite over the whole module must load with full type
// information and report zero unsuppressed findings. A red run here
// means either a real invariant violation or a site that needs a
// justified //impeccable: directive.
func TestRepositoryIsVetClean(t *testing.T) {
	if testing.Short() {
		t.Skip("loads the whole module")
	}
	loader, err := NewLoader(".")
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(loader.ModPath + "/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) < 10 {
		t.Fatalf("loaded only %d packages; the module walk is broken", len(pkgs))
	}
	for _, pkg := range pkgs {
		for _, terr := range pkg.TypeErrors {
			t.Errorf("%s: type error: %v", pkg.Path, terr)
		}
	}
	for _, d := range Run(pkgs, DefaultAnalyzers()) {
		t.Errorf("unsuppressed finding: %s", d)
	}
}

// TestUnjournaledOnlyInReplay pins the journal-before-ack waiver to the
// one place it is sound: internal/service may carry
// //impeccable:unjournaled only inside replayJournal, which applies
// states the journal already holds. A live transition that needs the
// directive is a second job lifecycle growing back.
func TestUnjournaledOnlyInReplay(t *testing.T) {
	const directive = "impeccable:" + "unjournaled"
	fset := token.NewFileSet()
	found := 0
	err := filepath.WalkDir("../service", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.Contains(c.Text, directive) {
					continue
				}
				found++
				if fn := enclosingFunc(f, c.Pos()); fn != "replayJournal" {
					t.Errorf("%s: //%s outside replayJournal (in %q)", fset.Position(c.Pos()), directive, fn)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if found == 0 {
		t.Fatal("no unjournaled directive found at all: did replayJournal move, or the walk break?")
	}
}

// enclosingFunc names the top-level function whose body spans pos ("" if
// none does).
func enclosingFunc(f *ast.File, pos token.Pos) string {
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && fd.Pos() <= pos && pos < fd.End() {
			return fd.Name.Name
		}
	}
	return ""
}
