package lint

import (
	"bufio"
	"bytes"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// auditedPkgs are the simulation packages whose hot paths the
// hotpath-alloc rule guards. Any other package carrying a line
// suppression of that rule is audited as well.
var auditedPkgs = []string{
	"internal/sim", "internal/link", "internal/switchfab", "internal/endnode",
	"internal/core", "internal/traffic", "internal/invariant", "internal/network",
}

// escapeRE matches the compiler's heap-allocation reports in
// `go build -gcflags=-m` output: "x escapes to heap", "func literal
// escapes to heap" and "moved to heap: x".
var escapeRE = regexp.MustCompile(`^(.+\.go):(\d+):\d+: (.*(escapes to heap|moved to heap).*)$`)

// TestHotpathSuppressionsHoldAgainstCompiler checks every
// `//lint:ignore hotpath-alloc` reason against the compiler: a line a
// directive covers (its own line and the next) must not be reported by
// escape analysis as allocating on the heap. A suppression claiming
// "no allocation" that the compiler contradicts is a false reason.
// File-wide suppressions are out of scope: they declare code off the
// hot path, not allocation-free.
func TestHotpathSuppressionsHoldAgainstCompiler(t *testing.T) {
	if testing.Short() {
		t.Skip("compiles the simulation packages with -gcflags=-m")
	}
	goTool, err := exec.LookPath("go")
	if err != nil {
		t.Skip("go tool not found; cannot run escape analysis")
	}
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	covered := hotpathSuppressedLines(t, root)
	pkgs := map[string]bool{}
	for _, p := range auditedPkgs {
		pkgs[p] = true
	}
	for key := range covered {
		pkgs[filepath.ToSlash(filepath.Dir(key[:strings.LastIndex(key, ":")]))] = true
	}
	args := []string{"build", "-gcflags=-m"}
	for p := range pkgs {
		args = append(args, "./"+p)
	}
	sort.Strings(args[2:])
	cmd := exec.Command(goTool, args...)
	cmd.Dir = root
	out, err := cmd.CombinedOutput()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, out)
	}
	escapes := 0
	sc := bufio.NewScanner(bytes.NewReader(out))
	for sc.Scan() {
		m := escapeRE.FindStringSubmatch(sc.Text())
		if m == nil {
			continue
		}
		escapes++
		key := filepath.ToSlash(filepath.Clean(m[1])) + ":" + m[2]
		if directive, ok := covered[key]; ok {
			t.Errorf("%s: compiler reports %q on a line suppressed by %s", key, m[3], directive)
		}
	}
	if escapes == 0 {
		t.Fatalf("no escape-analysis output from go %s; the audit would pass vacuously:\n%s", strings.Join(args, " "), out)
	}
}

// hotpathSuppressedLines maps "module/relative/file.go:line" to the
// covering directive for every line a `//lint:ignore` naming
// hotpath-alloc covers in the module's non-test sources.
func hotpathSuppressedLines(t *testing.T, root string) map[string]string {
	t.Helper()
	known := map[string]bool{}
	for _, a := range All() {
		known[a.Name] = true
	}
	covered := map[string]string{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// testdata holds seeded violations; nested modules build
			// on their own.
			if path != root && (d.Name() == "testdata" || strings.HasPrefix(d.Name(), ".") || fileExists(filepath.Join(path, "go.mod"))) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		supps, _ := parseFileSuppressions(fset, f, known)
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		for _, s := range supps {
			if s.fileWide || !s.rules["hotpath-alloc"] {
				continue
			}
			directive := rel + ":" + strconv.Itoa(s.line) + " (" + s.reason + ")"
			covered[rel+":"+strconv.Itoa(s.line)] = directive
			covered[rel+":"+strconv.Itoa(s.line+1)] = directive
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return covered
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}
