package dvv_test

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestCIRunPatternsMatchTests keeps the CI workflow's test selections
// alive: every `go test ... -run '<pattern>' <packages>` command in
// .github/workflows/ci.yml must have each top-level `|` alternative of
// its pattern (other than `^$`, which selects nothing on purpose) match
// at least one Test, Fuzz or Benchmark function in the listed packages.
// `go test -run` exits 0 when an alternative matches nothing, so a
// renamed or deleted test would otherwise drop out of its acceptance
// step silently.
func TestCIRunPatternsMatchTests(t *testing.T) {
	const workflow = ".github/workflows/ci.yml"
	raw, err := os.ReadFile(workflow)
	if err != nil {
		t.Fatal(err)
	}
	// Join shell line continuations so a multi-line command is one line.
	text := strings.ReplaceAll(string(raw), "\\\n", " ")

	commands := 0
	for i, line := range strings.Split(text, "\n") {
		args := shellFields(line)
		start := indexPair(args, "go", "test")
		if start < 0 {
			continue
		}
		args = args[start+2:]
		dir, pattern, pkgs := ".", "", []string(nil)
		for j := 0; j < len(args); j++ {
			switch a := args[j]; {
			case a == "-C" && j+1 < len(args):
				j++
				dir = args[j]
			case a == "-run" && j+1 < len(args):
				j++
				pattern = args[j]
			case strings.HasPrefix(a, "-run="):
				pattern = strings.TrimPrefix(a, "-run=")
			case a == "." || strings.HasPrefix(a, "./"):
				pkgs = append(pkgs, a)
			}
		}
		if pattern == "" {
			continue
		}
		commands++
		if len(pkgs) == 0 {
			pkgs = []string{"."}
		}
		names := testFuncs(t, dir, pkgs)
		for _, alt := range splitTopLevel(firstLevel(pattern), '|') {
			if alt == "^$" {
				continue
			}
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("%s:%d: -run alternative %q: %v", workflow, i+1, alt, err)
				continue
			}
			if !anyMatch(re, names) {
				t.Errorf("%s:%d: -run alternative %q matches no test in %v", workflow, i+1, alt, pkgs)
			}
		}
	}
	if commands == 0 {
		t.Fatalf("%s: found no `go test -run` command", workflow)
	}
}

var testFuncRE = regexp.MustCompile(`(?m)^func ((?:Test|Fuzz|Benchmark)\w*)\(`)

// testFuncs lists the top-level Test, Fuzz and Benchmark function names
// in the given package patterns, resolved against dir. A `/...` pattern
// walks the tree as `go test` does: it stops at nested modules and skips
// testdata and directories starting with `.` or `_`.
func testFuncs(t *testing.T, dir string, pkgs []string) []string {
	t.Helper()
	var names []string
	addDir := func(d string) {
		files, err := filepath.Glob(filepath.Join(d, "*_test.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, f := range files {
			src, err := os.ReadFile(f)
			if err != nil {
				t.Fatal(err)
			}
			for _, m := range testFuncRE.FindAllStringSubmatch(string(src), -1) {
				names = append(names, m[1])
			}
		}
	}
	for _, p := range pkgs {
		root, recursive := strings.CutSuffix(p, "/...")
		root = filepath.Join(dir, root)
		if !recursive {
			addDir(root)
			continue
		}
		err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.IsDir() {
				return err
			}
			if path != root {
				name := d.Name()
				if name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_") {
					return filepath.SkipDir
				}
				if _, err := os.Stat(filepath.Join(path, "go.mod")); err == nil {
					return filepath.SkipDir
				}
			}
			addDir(path)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return names
}

// shellFields splits a command line on blanks, keeping single- and
// double-quoted words whole and dropping the quotes.
func shellFields(line string) []string {
	var out []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range line {
		switch {
		case quote != 0:
			if r == quote {
				quote = 0
			} else {
				cur.WriteRune(r)
			}
		case r == '\'' || r == '"':
			quote, inWord = r, true
		case r == ' ' || r == '\t':
			if inWord {
				out = append(out, cur.String())
				cur.Reset()
				inWord = false
			}
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		out = append(out, cur.String())
	}
	return out
}

func indexPair(args []string, a, b string) int {
	for i := 0; i+1 < len(args); i++ {
		if args[i] == a && args[i+1] == b {
			return i
		}
	}
	return -1
}

// firstLevel returns the part of a -run pattern that selects top-level
// tests: `go test` splits the pattern on unbracketed slashes, one
// element per subtest level.
func firstLevel(pattern string) string {
	return splitTopLevel(pattern, '/')[0]
}

// splitTopLevel splits s on sep outside parentheses and brackets.
func splitTopLevel(s string, sep byte) []string {
	var out []string
	depth, last := 0, 0
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			i++
		case '(', '[':
			depth++
		case ')', ']':
			depth--
		case sep:
			if depth == 0 {
				out = append(out, s[last:i])
				last = i + 1
			}
		}
	}
	return append(out, s[last:])
}

func anyMatch(re *regexp.Regexp, names []string) bool {
	for _, n := range names {
		if re.MatchString(n) {
			return true
		}
	}
	return false
}
