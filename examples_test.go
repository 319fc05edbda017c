package visa_test

import (
	"go/doc"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"testing"
)

// TestExamplesPinned: every program under examples/ must carry an Example
// function with an "// Output:" comment, so that `go test ./...` fails when
// what an example prints changes, instead of the change going unnoticed.
func TestExamplesPinned(t *testing.T) {
	dirs, err := os.ReadDir("examples")
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, d := range dirs {
		if !d.IsDir() {
			continue
		}
		n++
		dir := filepath.Join("examples", d.Name())
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, nil, parser.ParseComments)
		if err != nil {
			t.Fatalf("%s: %v", dir, err)
		}
		pinned := false
		for _, pkg := range pkgs {
			for _, f := range pkg.Files {
				for _, ex := range doc.Examples(f) {
					if ex.Output != "" {
						pinned = true
					}
				}
			}
		}
		if !pinned {
			t.Errorf("%s has no Example function with an // Output: comment", dir)
		}
	}
	if n == 0 {
		t.Fatal("no example directories found")
	}
}
