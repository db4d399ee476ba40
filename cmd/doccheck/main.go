// Command doccheck lints the documentation of the tree at -root (default
// "."), listing every violation and exiting non-zero (`make docs`): every
// Go package has a doc comment ("Package <name> ..." unless main); every
// relative markdown link resolves; only internal/wire charges CatComm
// directly (cross-node costs go through wire.Plane.Do); no float32 or
// float64 appears between a cost and a clock (internal/sim's costs.go and
// task.go, and internal/wire), so virtual time is integer arithmetic;
// no non-test Go file but internal/memsys/frame.go imports "unsafe" (its
// byte and word views are the tree's only unchecked conversions); and
// every name of each inventory in inventories, read from the package that
// declares it, appears backquoted where its reference doc must name it.
package main

import (
	"cmp"
	"flag"
	"fmt"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"

	"cables/internal/coherence"
	"cables/internal/farm"
	"cables/internal/profile"
	"cables/internal/stats"
	"cables/internal/wire"
)

func main() {
	root := flag.String("root", ".", "repository root to lint")
	flag.Parse()
	problems, err := check(*root)
	switch {
	case err != nil:
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	case len(problems) > 0:
		fmt.Fprintf(os.Stderr, "%s\ndoccheck: %d problem(s)\n", strings.Join(problems, "\n"), len(problems))
		os.Exit(1)
	}
	fmt.Println("doccheck: ok")
}

const (
	onTableRow = "on a table row"
	anywhere   = "outside code fences"
	inSection  = "in section " // + the title of a "## " heading
)

// inventory is one list of names the code declares: each must appear
// backquoted, as prefix+name, within scope (one of the constants above;
// code fences never count) in every one of docs.
type inventory struct {
	what          string
	names, docs   []string
	prefix, scope string
}

// inventories lists every checked inventory, read from its owning package.
func inventories() []inventory {
	obs := "docs/OBSERVABILITY.md"
	return []inventory{
		{"stats event key", names[stats.Event](stats.NumEvents), []string{obs}, "", onTableRow},
		{"profiler span kind", names[profile.SpanKind](profile.NumSpanKinds), []string{obs}, "", onTableRow},
		{"profiler mark kind", names[profile.MarkKind](profile.NumMarkKinds), []string{obs}, "", onTableRow},
		{"metric family", farm.MetricFamilies(), []string{obs}, "", onTableRow},
		{"HTTP route", farm.Routes(), []string{"docs/SERVE.md"}, "", onTableRow},
		{"coherence protocol", coherence.Names(), []string{"DESIGN.md", "EXPERIMENTS.md"}, "", anywhere},
		{"wire op kind", names[wire.Kind](wire.NumKinds), []string{obs}, "wire.", inSection + "Virtual-time profiler"},
	}
}

// names renders the first n values of an enumerated kind.
func names[K interface {
	~uint8 | ~uint32 | ~int
	String() string
}](n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = K(i).String()
	}
	return out
}

// check lints the tree at root and returns every problem, sorted.
func check(root string) ([]string, error) {
	var problems []string
	report := func(format string, args ...any) { problems = append(problems, fmt.Sprintf(format, args...)) }
	type pkg struct{ dir, name string }
	pkgDocs := map[pkg]string{} // one documented file per package is enough
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() && path != root && (d.Name() == "testdata" || d.Name() == "vendor" ||
			strings.HasPrefix(d.Name(), ".") && d.Name() != ".github") {
			return cmp.Or(err, filepath.SkipDir)
		}
		isGo := strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go")
		if d.IsDir() || !isGo && !strings.HasSuffix(path, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if !isGo {
			for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
				// Skip external, mailto and pure-fragment links; strip a #fragment.
				target, _, _ := strings.Cut(m[1], "#")
				if target == "" || strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") {
					continue
				}
				resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
				if _, err := os.Stat(resolved); err != nil {
					report("%s: broken link %q (%s does not exist)", path, m[1], resolved)
				}
			}
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, data, parser.ParseComments|parser.ImportsOnly)
		if err != nil {
			return err
		}
		if key := (pkg{filepath.Dir(path), f.Name.Name}); pkgDocs[key] == "" {
			pkgDocs[key] = f.Doc.Text()
		}
		rel, _ := filepath.Rel(root, path) // cannot fail: path is under root
		rel = filepath.ToSlash(rel)
		for _, imp := range f.Imports {
			if imp.Path.Value == `"unsafe"` && rel != unsafeFile {
				report("%s:%d: unsafe imported outside %s", path, fset.Position(imp.Pos()).Line, unsafeFile)
			}
		}
		plane := strings.HasPrefix(rel, "internal/wire/")
		intTime := plane || rel == "internal/sim/costs.go" || rel == "internal/sim/task.go"
		for i, line := range strings.Split(string(data), "\n") {
			for _, call := range []string{".Charge(", ".Attribute("} {
				if !plane && strings.Contains(line, call+"sim.CatComm") {
					report("%s:%d: direct CatComm charge outside internal/wire; route it through wire.Plane.Do", path, i+1)
				}
			}
			if intTime && floatType.MatchString(line) {
				report("%s:%d: float between a cost and a clock; virtual time is integer (DESIGN.md §5b)", path, i+1)
			}
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	for p, doc := range pkgDocs {
		switch want := "Package " + p.name; {
		case doc == "":
			report("%s: package %s has no package doc comment", p.dir, p.name)
		case p.name != "main" && !strings.HasPrefix(doc, want+" ") && !strings.HasPrefix(doc, want+"\n"):
			report("%s: package %s doc comment does not start with %q", p.dir, p.name, want)
		}
	}
	for _, inv := range inventories() {
		for _, doc := range inv.docs {
			path := filepath.Join(root, filepath.FromSlash(doc))
			found, err := mentions(path, inv.scope)
			if err != nil {
				return nil, err
			}
			for _, name := range inv.names {
				if !found[inv.prefix+name] {
					report("%s: %s `%s%s` is not documented %s", path, inv.what, inv.prefix, name, inv.scope)
				}
			}
		}
	}
	sort.Strings(problems)
	return problems, nil
}

// unsafeFile is the one file that may import unsafe.
const unsafeFile = "internal/memsys/frame.go"

var (
	backtick  = regexp.MustCompile("`([^`]+)`")        // a markdown inline-code token
	mdLink    = regexp.MustCompile(`\]\(([^()\s]+)\)`) // the target of a markdown inline link
	floatType = regexp.MustCompile(`\bfloat(32|64)\b`) // a Go float type name
)

// mentions returns the backquoted tokens of the markdown file at path that
// lie within scope, reading line by line outside fenced code blocks.
func mentions(path, scope string) (map[string]bool, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	title, section := strings.CutPrefix(scope, inSection)
	found, in, fenced := map[string]bool{}, !section, false
	for _, line := range strings.Split(string(data), "\n") {
		trimmed := strings.TrimSpace(line)
		if strings.HasPrefix(trimmed, "```") {
			fenced = !fenced
			continue
		}
		if section && !fenced && strings.HasPrefix(line, "## ") {
			in = strings.Contains(line, title)
		}
		if fenced || !in || scope == onTableRow && !strings.HasPrefix(trimmed, "|") {
			continue
		}
		for _, m := range backtick.FindAllStringSubmatch(line, -1) {
			found[m[1]] = true
		}
	}
	return found, nil
}
