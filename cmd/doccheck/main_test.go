package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestRepositoryIsClean: the repository's own tree passes every rule; in
// particular no package but internal/wire (not vmmc, not san) charges
// CatComm.
func TestRepositoryIsClean(t *testing.T) {
	problems, err := check(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	if len(problems) > 0 {
		t.Errorf("doccheck reports %d problem(s) on the repository:\n%s", len(problems), strings.Join(problems, "\n"))
	}
}

// cleanTree returns the files of a minimal tree that passes every rule.
// It also holds what each rule must ignore: undocumented packages under
// testdata and dot directories and in _test files, CatComm charges inside
// internal/wire, floats outside the virtual-time files and in their tests,
// unsafe in internal/memsys/frame.go, external, mailto and fragment links.
// Every inventory name is mentioned in scope, except that misplace
// ("<what>@<doc>") names one inventory whose first name that doc mentions
// only just out of scope: in prose instead of on a table row, inside a code
// fence, or under another section.
func cleanTree(misplace string) map[string]string {
	files := map[string]string{
		"pkg/ok/ok.go":               "// Package ok is documented.\npackage ok\n",
		"pkg/ok/ok_test.go":          "package ok_test\n",
		"cmd/tool/main.go":           "// Command tool is documented.\npackage main\n",
		"testdata/x.go":              "package undocumented\n",
		".hidden/x.go":               "package undocumented\n",
		"internal/wire/wire.go":      "// Package wire is the plane.\npackage wire\n\nfunc f() { t.Charge(sim.CatComm, 1); t.Attribute(sim.CatComm, 1) }\n",
		"internal/wire/wire_test.go": "package wire\n\nvar ratio float64\n",
		"internal/sim/costs.go":      "// Package sim keeps time.\npackage sim\n\nvar perBytePs int64\n",
		"internal/sim/time.go":       "package sim\n\nfunc (t Time) Micros() float64 { return float64(t) / 1e3 }\n",
		"internal/memsys/frame.go":   "// Package memsys stores words.\npackage memsys\n\nimport \"unsafe\"\n",
		"README.md":                  "[d](DESIGN.md) [s](docs/SERVE.md#routes) [w](https://example.com/x) [m](mailto:a@b.c) [f](#top)\n",
	}
	for _, inv := range inventories() {
		for _, doc := range inv.docs {
			var in, out strings.Builder
			for i, name := range inv.names {
				tok := "`" + inv.prefix + name + "`"
				switch {
				case i > 0 || inv.what+"@"+doc != misplace:
					if inv.scope == onTableRow {
						tok = "| " + tok + " | documented |"
					}
					in.WriteString(tok + "\n")
				case inv.scope == onTableRow:
					out.WriteString("Prose mentions " + tok + ".\n")
				case inv.scope == anywhere:
					out.WriteString("```\n" + tok + "\n```\n")
				default:
					out.WriteString(tok + "\n")
				}
			}
			if title, ok := strings.CutPrefix(inv.scope, inSection); ok {
				files[doc] += "\n## " + title + "\n\n" + in.String() + "\n## Elsewhere\n\n" + out.String()
			} else {
				files[doc] += "\n" + in.String() + "\n" + out.String()
			}
		}
	}
	return files
}

// lint writes files under a fresh directory and runs check on it.
func lint(t *testing.T, files map[string]string) []string {
	t.Helper()
	root := t.TempDir()
	for name, text := range files {
		path := filepath.Join(root, filepath.FromSlash(name))
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	problems, err := check(root)
	if err != nil {
		t.Fatal(err)
	}
	return problems
}

// TestEachRuleFires: a tree with exactly one violation reports exactly
// that problem, for every rule and every inventory.
func TestEachRuleFires(t *testing.T) {
	if problems := lint(t, cleanTree("")); len(problems) > 0 {
		t.Fatalf("clean tree reports problems:\n%s", strings.Join(problems, "\n"))
	}

	type violation struct {
		name     string
		misplace string
		file     string
		text     string
		want     string
	}
	cases := []violation{
		{"package without doc", "", "pkg/bare/bare.go", "package bare\n", "package bare has no package doc comment"},
		{"non-canonical package doc", "", "pkg/odd/odd.go", "// Odd things.\npackage odd\n", `package odd doc comment does not start with "Package odd"`},
		{"broken link", "", "docs/GUIDE.md", "See [it](../MISSING.md#x).\n", `GUIDE.md: broken link "../MISSING.md#x"`},
		{"CatComm charge", "", "internal/core/core.go", "// Package core is outside the plane.\npackage core\n\nfunc f() { t.Charge(sim.CatComm, 1) }\n", "core.go:4: direct CatComm charge"},
		{"CatComm charge in vmmc", "", "internal/vmmc/vmmc.go", "// Package vmmc is outside the plane.\npackage vmmc\n\nfunc f() { t.Attribute(sim.CatComm, 1) }\n", "vmmc.go:4: direct CatComm charge"},
		{"float in costs", "", "internal/sim/costs.go", "// Package sim keeps time.\npackage sim\n\nvar perByte float64\n", "costs.go:4: float between a cost and a clock"},
		{"float in task", "", "internal/sim/task.go", "package sim\n\nfunc f(d Time) Time { return Time(float64(d) * 1.5) }\n", "task.go:3: float between a cost and a clock"},
		{"float in wire", "", "internal/wire/cost.go", "package wire\n\nvar scale float32\n", "cost.go:3: float between a cost and a clock"},
		{"unsafe outside frame.go", "", "internal/memsys/access.go", "package memsys\n\nimport (\n\t\"fmt\"\n\t\"unsafe\"\n)\n", "access.go:5: unsafe imported outside internal/memsys/frame.go"},
	}
	for _, inv := range inventories() {
		for _, doc := range inv.docs {
			cases = append(cases, violation{name: inv.what + " in " + doc, misplace: inv.what + "@" + doc,
				want: filepath.Base(doc) + ": " + inv.what + " `" + inv.prefix + inv.names[0] + "` is not documented " + inv.scope})
		}
	}
	for _, tc := range cases {
		files := cleanTree(tc.misplace)
		if tc.file != "" {
			files[tc.file] = tc.text
		}
		problems := lint(t, files)
		if len(problems) != 1 || !strings.Contains(problems[0], tc.want) {
			t.Errorf("%s: got %d problem(s), want exactly one containing %q:\n%s",
				tc.name, len(problems), tc.want, strings.Join(problems, "\n"))
		}
	}
}
