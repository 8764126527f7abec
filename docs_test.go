package repro

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// The documents that name code, and the names they may cite.
var (
	liveDocs = []string{"README.md", "DESIGN.md", "EXPERIMENTS.md", ".claude/skills/verify/SKILL.md"}
	// A struck-through citation (~~TestX~~, ~~`internal/x.go`~~) names
	// something deleted on purpose.
	struckRe   = regexp.MustCompile("~~[^~\n]*~~")
	testNameRe = regexp.MustCompile(`\b(?:Test|Benchmark|Fuzz)[A-Z_][A-Za-z0-9_]*`)
	testFuncRe = regexp.MustCompile(`(?m)^func ((?:Test|Benchmark|Fuzz)[A-Z_][A-Za-z0-9_]*)\(`)
	pathRe     = regexp.MustCompile(`\binternal/[A-Za-z0-9_./-]*[A-Za-z0-9_]`)
)

// TestDocsNameLiveCode fails when a document names a Test, Benchmark or Fuzz
// function, or an internal/ path, that no longer exists. A name cited as
// deleted must be struck through, and is skipped.
func TestDocsNameLiveCode(t *testing.T) {
	funcs := map[string]bool{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && path != "." && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range testFuncRe.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	for _, doc := range liveDocs {
		src, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		text := struckRe.ReplaceAllString(string(src), "")
		for _, name := range testNameRe.FindAllString(text, -1) {
			if !funcs[name] {
				t.Errorf("%s names %s, which no test file defines", doc, name)
			}
		}
		for _, path := range pathRe.FindAllString(text, -1) {
			if !pathExists(path) {
				t.Errorf("%s names %s, which does not exist", doc, path)
			}
		}
	}
}

// pathExists resolves a cited path: a file or directory exists, or a Go
// identifier rides on a package path ("internal/core.OptimisticMatcher").
func pathExists(path string) bool {
	for p := path; ; {
		if _, err := os.Stat(p); err == nil {
			return true
		}
		i := strings.LastIndexByte(p, '.')
		if i <= strings.LastIndexByte(p, '/') {
			return false
		}
		p = p[:i]
	}
}
