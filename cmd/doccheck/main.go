// Command doccheck lints the repository's documentation surface, using only
// the standard library:
//
//   - every Go package (outside _test packages) must carry a package doc
//     comment, and non-main packages must start it with the canonical
//     "Package <name> ..." form godoc expects;
//   - every relative link in the markdown files must resolve to a file or
//     directory that exists in the repository;
//   - no non-test code outside the communication substrate (internal/wire,
//     internal/vmmc) may charge CatComm directly — all cross-node traffic
//     must flow through the wire plane's choke point;
//   - every observability name the code defines — stats event keys, trace
//     event kinds, profiler span and mark names — must appear backquoted in
//     a docs/OBSERVABILITY.md inventory table, so adding an event without
//     documenting it fails CI;
//   - every HTTP route the simulation farm registers (internal/farm routes)
//     must appear backquoted in a docs/SERVE.md table, and every farm stats
//     key (internal/farm statsKeys) in a SERVE.md or OBSERVABILITY.md
//     table, so the served API surface cannot drift from its reference;
//   - every Prometheus metric family the farm registers (internal/farm
//     familyNames) must appear backquoted in a docs/OBSERVABILITY.md table,
//     so registering an instrument without documenting it fails CI.
//
// It walks the tree rooted at the optional -root flag (default ".") and
// exits non-zero listing every violation, so CI can gate on it
// (`make docs`).
package main

import (
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
)

func main() {
	root := flag.String("root", ".", "repository root to lint")
	flag.Parse()

	var problems []string
	pkgProblems, err := checkPackageDocs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	problems = append(problems, pkgProblems...)

	linkProblems, err := checkMarkdownLinks(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	problems = append(problems, linkProblems...)

	commProblems, err := checkCommCharges(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	problems = append(problems, commProblems...)

	invProblems, err := checkObservabilityInventory(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	problems = append(problems, invProblems...)

	farmProblems, err := checkFarmDocs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	problems = append(problems, farmProblems...)

	protoProblems, err := checkProtocolDocs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	problems = append(problems, protoProblems...)

	metricProblems, err := checkMetricsDocs(*root)
	if err != nil {
		fmt.Fprintf(os.Stderr, "doccheck: %v\n", err)
		os.Exit(2)
	}
	problems = append(problems, metricProblems...)

	if len(problems) > 0 {
		sort.Strings(problems)
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "doccheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("doccheck: ok")
}

// skipDir reports whether a directory should not be descended into.
func skipDir(name string) bool {
	return name == ".git" || name == "testdata" || name == "vendor" ||
		strings.HasPrefix(name, ".") && name != "." && name != ".github"
}

// checkPackageDocs requires a package doc comment on every Go package: any
// comment for main packages, the canonical "Package <name>" form otherwise.
// One documented file per package is enough (the Go convention: the doc
// lives in one file, commonly the one named after the package).
func checkPackageDocs(root string) ([]string, error) {
	dirs := map[string]bool{}
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
			dirs[filepath.Dir(path)] = true
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	var problems []string
	for dir := range dirs {
		fset := token.NewFileSet()
		pkgs, err := parser.ParseDir(fset, dir, func(fi fs.FileInfo) bool {
			return !strings.HasSuffix(fi.Name(), "_test.go")
		}, parser.ParseComments|parser.PackageClauseOnly)
		if err != nil {
			return nil, fmt.Errorf("parse %s: %v", dir, err)
		}
		for name, pkg := range pkgs {
			if strings.HasSuffix(name, "_test") {
				continue
			}
			doc := ""
			for _, f := range pkg.Files {
				if f.Doc != nil {
					doc = f.Doc.Text()
					break
				}
			}
			switch {
			case doc == "":
				problems = append(problems,
					fmt.Sprintf("%s: package %s has no package doc comment", dir, name))
			case name != "main" && !strings.HasPrefix(doc, "Package "+name+" ") &&
				!strings.HasPrefix(doc, "Package "+name+"\n"):
				problems = append(problems,
					fmt.Sprintf("%s: package %s doc comment does not start with %q",
						dir, name, "Package "+name))
			}
		}
	}
	return problems, nil
}

// commChargeAllowed lists the directories whose non-test code may charge
// CatComm directly: the wire plane (the choke point itself) and vmmc (the
// NIC model the plane delegates data transfers to).  Everything else must
// route cross-node traffic through wire.Plane.Do.
var commChargeAllowed = []string{
	filepath.Join("internal", "wire"),
	filepath.Join("internal", "vmmc"),
}

// commCharge matches a direct communication charge or attribution.
var commCharge = regexp.MustCompile(`\.(Charge|Attribute)\(sim\.CatComm`)

// checkCommCharges scans non-test Go sources for direct CatComm charges
// outside the allowed substrate directories — the lint that keeps the wire
// plane the single choke point for cross-node costs.
func checkCommCharges(root string) ([]string, error) {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		for _, dir := range commChargeAllowed {
			if strings.HasPrefix(rel, dir+string(filepath.Separator)) {
				return nil
			}
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for i, line := range strings.Split(string(data), "\n") {
			if commCharge.MatchString(line) {
				problems = append(problems, fmt.Sprintf(
					"%s:%d: direct CatComm charge outside internal/wire and internal/vmmc; route it through wire.Plane.Do",
					path, i+1))
			}
		}
		return nil
	})
	return problems, err
}

// backtick matches a backquoted inline-code token in markdown.
var backtick = regexp.MustCompile("`([^`]+)`")

// quoted matches a double-quoted Go string literal (no escapes — the
// inventory names are plain identifiers).
var quoted = regexp.MustCompile(`"([^"\\]+)"`)

// sliceLiteral extracts the quoted strings from a `var <name> = [...]...{`
// composite literal in a Go source file: everything between the opening
// brace after the declaration and the first closing brace.
func sliceLiteral(path, name string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	src := string(data)
	i := strings.Index(src, "var "+name+" = [")
	if i < 0 {
		return nil, fmt.Errorf("%s: declaration of %s not found", path, name)
	}
	src = src[i:]
	open := strings.IndexByte(src, '{')
	close := strings.IndexByte(src, '}')
	if open < 0 || close < open {
		return nil, fmt.Errorf("%s: malformed literal for %s", path, name)
	}
	var names []string
	for _, m := range quoted.FindAllStringSubmatch(src[open:close], -1) {
		names = append(names, m[1])
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no names in literal for %s", path, name)
	}
	return names, nil
}

// constStrings extracts the values of string constants of the given type,
// declared in the `<Name>  Type = "value"` form.
func constStrings(path, typeName string) ([]string, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	re := regexp.MustCompile(`\b` + typeName + `\s*=\s*"([^"\\]+)"`)
	var names []string
	for _, m := range re.FindAllStringSubmatch(string(data), -1) {
		names = append(names, m[1])
	}
	if len(names) == 0 {
		return nil, fmt.Errorf("%s: no %s string constants found", path, typeName)
	}
	return names, nil
}

// checkObservabilityInventory keeps docs/OBSERVABILITY.md's inventory
// tables in lock-step with the code: every stats event key, trace event
// kind, and profiler span/mark name defined in the source must appear as a
// backquoted token in a table row of the doc.  Adding an event without
// documenting it is a CI failure, so the inventories cannot drift.
func checkObservabilityInventory(root string) ([]string, error) {
	docPath := filepath.Join(root, "docs", "OBSERVABILITY.md")
	documented, err := tableTokens(docPath)
	if err != nil {
		return nil, err
	}

	type group struct {
		what  string
		src   string
		names []string
	}
	var groups []group

	statsKeys, err := sliceLiteral(filepath.Join(root, "internal", "stats", "stats.go"), "eventKeys")
	if err != nil {
		return nil, err
	}
	groups = append(groups, group{"stats event key", "internal/stats/stats.go", statsKeys})

	traceKinds, err := constStrings(filepath.Join(root, "internal", "trace", "trace.go"), "Kind")
	if err != nil {
		return nil, err
	}
	groups = append(groups, group{"trace event kind", "internal/trace/trace.go", traceKinds})

	spanNames, err := sliceLiteral(filepath.Join(root, "internal", "profile", "profile.go"), "spanNames")
	if err != nil {
		return nil, err
	}
	groups = append(groups, group{"profiler span kind", "internal/profile/profile.go", spanNames})

	markNames, err := sliceLiteral(filepath.Join(root, "internal", "profile", "profile.go"), "markNames")
	if err != nil {
		return nil, err
	}
	groups = append(groups, group{"profiler mark kind", "internal/profile/profile.go", markNames})

	var problems []string
	for _, g := range groups {
		for _, name := range g.names {
			if !documented[name] {
				problems = append(problems, fmt.Sprintf(
					"%s: %s %q (defined in %s) missing from the inventory tables",
					docPath, g.what, name, g.src))
			}
		}
	}
	return problems, nil
}

// checkProtocolDocs keeps the coherence-protocol surface documented:
// every name in internal/coherence's protocolNames must appear backquoted
// in both DESIGN.md (the protocol-seam section) and EXPERIMENTS.md (how to
// select it), and every wire op kind in internal/wire's kindNames must
// appear backquoted as `wire.<kind>` in docs/OBSERVABILITY.md — so
// shipping a new protocol or wire op kind without documenting it is a CI
// failure.
func checkProtocolDocs(root string) ([]string, error) {
	// Scan line by line, skipping fenced code blocks: a ``` fence has an
	// odd backtick count, which would desynchronize the pair-matching
	// regex for the rest of the file.
	backticksOf := func(path string) (map[string]bool, error) {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		documented := map[string]bool{}
		inFence := false
		for _, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				inFence = !inFence
				continue
			}
			if inFence {
				continue
			}
			for _, m := range backtick.FindAllStringSubmatch(line, -1) {
				documented[m[1]] = true
			}
		}
		return documented, nil
	}

	names, err := sliceLiteral(filepath.Join(root, "internal", "coherence", "coherence.go"), "protocolNames")
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, doc := range []string{"DESIGN.md", "EXPERIMENTS.md"} {
		docPath := filepath.Join(root, doc)
		documented, err := backticksOf(docPath)
		if err != nil {
			return nil, err
		}
		for _, name := range names {
			if !documented[name] {
				problems = append(problems, fmt.Sprintf(
					"%s: coherence protocol %q (registered in internal/coherence/coherence.go) is not documented",
					docPath, name))
			}
		}
	}

	kinds, err := sliceLiteral(filepath.Join(root, "internal", "wire", "wire.go"), "kindNames")
	if err != nil {
		return nil, err
	}
	obsPath := filepath.Join(root, "docs", "OBSERVABILITY.md")
	inObs, err := backticksOf(obsPath)
	if err != nil {
		return nil, err
	}
	for _, kind := range kinds {
		if !inObs["wire."+kind] {
			problems = append(problems, fmt.Sprintf(
				"%s: wire op kind `wire.%s` (registered in internal/wire/wire.go) is not documented",
				obsPath, kind))
		}
	}
	return problems, nil
}

// tableTokens collects every backquoted token that appears on a markdown
// table row (a line starting with "|") of the given doc.
func tableTokens(docPath string) (map[string]bool, error) {
	data, err := os.ReadFile(docPath)
	if err != nil {
		return nil, err
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if !strings.HasPrefix(strings.TrimSpace(line), "|") {
			continue
		}
		for _, m := range backtick.FindAllStringSubmatch(line, -1) {
			documented[m[1]] = true
		}
	}
	return documented, nil
}

// checkFarmDocs keeps the simulation farm's documented API surface in
// lock-step with the code: every HTTP route the server registers
// (internal/farm/server.go routes — Server.Handler panics if the mux and
// this literal disagree) must appear backquoted in a docs/SERVE.md table,
// and every service stats key (internal/farm/stats.go statsKeys) must
// appear in a SERVE.md or OBSERVABILITY.md table.  Adding an endpoint or a
// counter without documenting it is a CI failure.
func checkFarmDocs(root string) ([]string, error) {
	servePath := filepath.Join(root, "docs", "SERVE.md")
	inServe, err := tableTokens(servePath)
	if err != nil {
		return nil, err
	}
	obsPath := filepath.Join(root, "docs", "OBSERVABILITY.md")
	inObs, err := tableTokens(obsPath)
	if err != nil {
		return nil, err
	}

	var problems []string
	routes, err := sliceLiteral(filepath.Join(root, "internal", "farm", "server.go"), "routes")
	if err != nil {
		return nil, err
	}
	for _, r := range routes {
		if !inServe[r] {
			problems = append(problems, fmt.Sprintf(
				"%s: HTTP route %q (registered in internal/farm/server.go) missing from the endpoint table",
				servePath, r))
		}
	}

	keys, err := sliceLiteral(filepath.Join(root, "internal", "farm", "stats.go"), "statsKeys")
	if err != nil {
		return nil, err
	}
	for _, k := range keys {
		if !inServe[k] && !inObs[k] {
			problems = append(problems, fmt.Sprintf(
				"%s: farm stats key %q (defined in internal/farm/stats.go) missing from the SERVE.md and OBSERVABILITY.md tables",
				servePath, k))
		}
	}
	return problems, nil
}

// checkMetricsDocs keeps the telemetry plane documented: every Prometheus
// metric family the farm registers (internal/farm/metrics.go familyNames —
// newMetrics and the farm tests pin the literal against the live registry)
// must appear backquoted in a docs/OBSERVABILITY.md table, so a scraper
// never meets a family the reference does not explain.
func checkMetricsDocs(root string) ([]string, error) {
	docPath := filepath.Join(root, "docs", "OBSERVABILITY.md")
	documented, err := tableTokens(docPath)
	if err != nil {
		return nil, err
	}
	names, err := sliceLiteral(filepath.Join(root, "internal", "farm", "metrics.go"), "familyNames")
	if err != nil {
		return nil, err
	}
	var problems []string
	for _, name := range names {
		if !documented[name] {
			problems = append(problems, fmt.Sprintf(
				"%s: metric family %q (registered in internal/farm/metrics.go) missing from the farm metrics table",
				docPath, name))
		}
	}
	return problems, nil
}

// mdLink matches the target of an inline markdown link: ](target).
var mdLink = regexp.MustCompile(`\]\(([^()\s]+)\)`)

// checkMarkdownLinks resolves every relative link in every .md file against
// the filesystem.  External schemes, mailto and pure-fragment links are
// skipped; a #fragment suffix on a file link is stripped before the check.
func checkMarkdownLinks(root string) ([]string, error) {
	var problems []string
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && skipDir(d.Name()) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".md") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			if strings.Contains(target, "://") ||
				strings.HasPrefix(target, "mailto:") ||
				strings.HasPrefix(target, "#") {
				continue
			}
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(path), filepath.FromSlash(target))
			if _, err := os.Stat(resolved); err != nil {
				problems = append(problems,
					fmt.Sprintf("%s: broken link %q (%s does not exist)", path, m[1], resolved))
			}
		}
		return nil
	})
	return problems, err
}
