package analysis

import (
	"os"
	"path/filepath"
	"slices"
	"testing"
)

// TestLoadSkipsNestedModules checks that /... expansion stops at a
// subdirectory holding its own go.mod, as the go tool does: a nested
// module is a separate program, so its packages must not enter the
// outer module's call graph.
func TestLoadSkipsNestedModules(t *testing.T) {
	root := t.TempDir()
	files := map[string]string{
		"go.mod":             "module outer\n\ngo 1.22\n",
		"a/a.go":             "package a\n\nfunc A() {}\n",
		"a/deep/d.go":        "package deep\n\nfunc D() {}\n",
		"bench/go.mod":       "module bench\n\ngo 1.22\n",
		"bench/main.go":      "package main\n\nfunc main() {}\n",
		"bench/sub/s.go":     "package sub\n\nfunc S() {}\n",
		"a/testdata/t/t.go":  "package t\n",
		"a/nested/go.mod":    "module nested\n\ngo 1.22\n",
		"a/nested/n.go":      "package nested\n\nfunc N() {}\n",
		"a/nested/in/i.go":   "package in\n\nfunc I() {}\n",
		"a/notmod/go.mod.go": "package notmod\n\nfunc M() {}\n",
	}
	for name, src := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	loader, err := NewLoader(root)
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := loader.Load(filepath.Join(root, "..."))
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, p := range pkgs {
		got = append(got, p.ImportPath)
	}
	want := []string{"outer/a", "outer/a/deep", "outer/a/notmod"}
	if !slices.Equal(got, want) {
		t.Errorf("Load(./...) = %v, want %v", got, want)
	}
}
