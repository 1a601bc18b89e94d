package spine

import (
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// censusSources are the files whose flag registrations SURFACE.md lists,
// keyed by the name its "registered by" column uses for them.
var censusSources = map[string]string{
	"spine":       "daemon.go",
	"cereszd":     "../../cmd/cereszd/main.go",
	"cereszproxy": "../../cmd/cereszproxy/main.go",
	"ceresz":      "../../cmd/ceresz/main.go",
	"cereszbench": "../../cmd/cereszbench/main.go",
	"cereszsim":   "../../cmd/cereszsim/main.go",
	"datagen":     "../../cmd/datagen/main.go",
	"benchdiff":   "../../cmd/benchdiff/main.go",
}

// flagNameArg maps each package flag function that registers a flag to
// the position of its name argument.
var flagNameArg = map[string]int{
	"Bool": 0, "Int": 0, "Int64": 0, "Uint": 0, "Uint64": 0, "String": 0,
	"Float64": 0, "Duration": 0, "Func": 0, "BoolFunc": 0,
	"BoolVar": 1, "IntVar": 1, "Int64Var": 1, "UintVar": 1, "Uint64Var": 1,
	"StringVar": 1, "Float64Var": 1, "DurationVar": 1, "Var": 1, "TextVar": 1,
}

// registeredFlags parses path and returns the name of every flag.* call
// that registers a flag.
func registeredFlags(t *testing.T, path string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		pkg, ok := sel.X.(*ast.Ident)
		arg, registers := flagNameArg[sel.Sel.Name]
		if !ok || pkg.Name != "flag" || !registers {
			return true
		}
		lit, ok := call.Args[arg].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Fatalf("%s: flag.%s registers a flag whose name is not a string literal", path, sel.Sel.Name)
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		return true
	})
	return names
}

// TestDaemonFlagCensus holds SURFACE.md and every command's flag
// registrations to each other: every registered flag has a row naming its
// owner, and every row names a registered flag.
func TestDaemonFlagCensus(t *testing.T) {
	registered := map[string]bool{} // "<registrar> -<flag>"
	for who, path := range censusSources {
		for _, name := range registeredFlags(t, filepath.FromSlash(path)) {
			registered[who+" -"+name] = true
		}
	}
	if len(registered) == 0 {
		t.Fatal("no flag registrations found")
	}

	doc, err := os.ReadFile(filepath.FromSlash("../../SURFACE.md"))
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]bool{}
	for _, line := range strings.Split(string(doc), "\n") {
		cells := strings.Split(strings.Trim(strings.TrimSpace(line), "|"), "|")
		if len(cells) != 3 {
			continue
		}
		who := strings.TrimSpace(cells[0])
		if who == "registered by" || strings.HasPrefix(who, "---") {
			continue // the header and separator rows
		}
		if _, ok := censusSources[who]; !ok {
			t.Errorf("SURFACE.md row names %q, which is not a census source", who)
			continue
		}
		key := who + " " + strings.Trim(strings.TrimSpace(cells[1]), "`")
		if rows[key] {
			t.Errorf("SURFACE.md lists %s twice", key)
		}
		rows[key] = true
		if strings.TrimSpace(cells[2]) == "" {
			t.Errorf("SURFACE.md row %s names no owner", key)
		}
		if !registered[key] {
			t.Errorf("SURFACE.md lists %s, which nobody registers", key)
		}
	}
	for key := range registered {
		if !rows[key] {
			t.Errorf("%s is registered but has no SURFACE.md row", key)
		}
	}
}
