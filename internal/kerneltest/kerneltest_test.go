package kerneltest

import (
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

func TestEachSwitchesAndRestores(t *testing.T) {
	var a, b bool
	flags := []*bool{&a, &b}
	sets := []Set{
		{Name: "none", Have: true, Flags: flags, On: []bool{false, false}},
		{Name: "missing", Have: false, Flags: flags, On: []bool{true, false}},
		{Name: "both", Have: true, Flags: flags, On: []bool{true, true}},
	}
	var ran []string
	Each(t, sets, func(t *testing.T) {
		ran = append(ran, strings.TrimPrefix(t.Name(), "TestEachSwitchesAndRestores/")+":"+strconv.FormatBool(a)+","+strconv.FormatBool(b))
	})
	if got, want := strings.Join(ran, " "), "none:false,false both:true,true"; got != want {
		t.Fatalf("ran %q, want %q", got, want)
	}
	if a || b {
		t.Fatalf("flags left at %v, %v", a, b)
	}
}

// TestImportedFromTestsOnly keeps the package out of every binary: only
// _test.go files of the module may import it.
func TestImportedFromTestsOnly(t *testing.T) {
	root := filepath.Join("..", "..")
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") && path != root {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ImportsOnly)
		if err != nil {
			return err
		}
		for _, imp := range f.Imports {
			if imp.Path.Value == `"ceresz/internal/kerneltest"` {
				t.Errorf("%s imports kerneltest outside a test", path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}
