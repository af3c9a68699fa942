// Command docscheck is the `make docs-check` gate: it keeps the prose and
// the code honest. It (1) checks every relative markdown link in README.md
// and docs/*.md resolves to an existing file (and every same-file #anchor
// to a real heading), and (2) asserts exported-symbol doc-comment coverage
// for the public ckprivacy package, internal/server, internal/store,
// internal/replica, internal/anonymize, internal/bucket and the ckvet
// suite — every exported
// type, function, method, constant and variable must carry a doc comment,
// so pkg.go.dev never renders a bare name — (3) checks every fuzz target
// outside bench/ has a `-fuzz <Name>` line for its package directory in
// the Makefile's fuzz-smoke recipe, so a new target cannot silently miss
// CI's fuzz job, and (4) checks every row of ARCHITECTURE's "Production
// paths and their oracles" table names, in its parity column, Test* or
// Fuzz* functions that some _test.go outside bench/ defines, so a fast
// path cannot lose its named oracle test, (5) checks every backticked
// repository file path in docs/PAPER-MAP.md and docs/ARCHITECTURE.md (a
// code span that starts with a top-level directory such as internal/ or
// cmd/ and ends in a file extension) names a file that exists, so the
// claims ledger cannot cite deleted code, and (6) checks every Test*,
// Fuzz*, Benchmark* or Example* name in the last ("Verified by") column
// of docs/PAPER-MAP.md's tables is defined in some _test.go outside
// bench/, a name with a * wildcard matching at least one, so a claim
// cannot rest on a test that was renamed or deleted, and (7) checks
// every `go test ... -run '<pattern>' ./pkg` line of the CI workflow
// names tests ./pkg defines: each name of an anchored alternation
// ^(A|B)$ must be a Test*, Fuzz* or Example* function there, and any
// other pattern but ^$ must match at least one, so a renamed or deleted
// test cannot silently shrink a repeated CI step. Bare file names,
// package paths and symbols are not file paths and are not checked. It
// exits non-zero listing every offender.
//
// `docscheck paper` (`make paper`) instead executes the claims ledger:
// for every row of docs/PAPER-MAP.md's tables it runs the tests the
// "Verified by" column cites, prints one line per row (claim, tests,
// PASS or FAIL) and exits non-zero if any row fails; see runPaper.
package main

import (
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"sort"
	"strings"
)

func main() {
	if len(os.Args) > 1 && os.Args[1] == "paper" {
		os.Exit(runPaper("docs/PAPER-MAP.md"))
	}
	var problems []string
	problems = append(problems, checkMarkdown()...)
	tests, err := testFuncs()
	if err != nil {
		problems = append(problems, fmt.Sprintf("docscheck: %v", err))
	}
	problems = append(problems, checkFuzzSmoke(tests)...)
	problems = append(problems, checkOracleTable("docs/ARCHITECTURE.md", tests)...)
	problems = append(problems, checkCitedFiles("docs/PAPER-MAP.md", "docs/ARCHITECTURE.md")...)
	problems = append(problems, checkVerifiedBy("docs/PAPER-MAP.md", tests)...)
	problems = append(problems, checkCIRuns(ciWorkflow, tests)...)
	problems = append(problems, checkDocComments(".", "ckprivacy")...)
	problems = append(problems, checkDocComments("internal/server", "server")...)
	problems = append(problems, checkDocComments("internal/store", "store")...)
	// The follower client speaks the leader's replication wire contract
	// across process boundaries; its exported surface stays documented.
	problems = append(problems, checkDocComments("internal/replica", "replica")...)
	// The sweep planner and the arena pool cross goroutine and package
	// boundaries on documented contracts; keep those contracts written.
	problems = append(problems, checkDocComments("internal/anonymize", "anonymize")...)
	problems = append(problems, checkDocComments("internal/bucket", "bucket")...)
	problems = append(problems, checkDocComments("docs", "docs")...)
	// The ckvet suite documents the invariants it enforces; a bare
	// exported name there would leave an analyzer without its contract.
	problems = append(problems, checkDocComments("internal/tools/ckvet", "main")...)
	problems = append(problems, checkDocComments("internal/tools/ckvet/analysis", "analysis")...)
	problems = append(problems, checkDocComments("internal/tools/ckvet/analysis/analysistest", "analysistest")...)
	for _, check := range []string{"maporder", "errenvelope", "atomicwrite", "snapshotmut", "poolleak"} {
		problems = append(problems, checkDocComments("internal/tools/ckvet/checks/"+check, check)...)
	}
	if len(problems) > 0 {
		for _, p := range problems {
			fmt.Fprintln(os.Stderr, p)
		}
		fmt.Fprintf(os.Stderr, "docscheck: %d problem(s)\n", len(problems))
		os.Exit(1)
	}
	fmt.Println("docscheck: markdown links, doc-comment coverage, fuzz-smoke list, oracle table, cited files, cited tests and CI -run patterns OK")
}

// ---- markdown link checking ----

// linkRE matches inline markdown links [text](target); images share the
// syntax and are checked the same way.
var linkRE = regexp.MustCompile(`\]\(([^)\s]+)\)`)

// markdownFiles returns README.md plus every markdown file under docs/.
func markdownFiles() ([]string, error) {
	files := []string{"README.md"}
	entries, err := os.ReadDir("docs")
	if err != nil {
		return nil, err
	}
	for _, e := range entries {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".md") {
			files = append(files, filepath.Join("docs", e.Name()))
		}
	}
	return files, nil
}

func checkMarkdown() []string {
	files, err := markdownFiles()
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	var problems []string
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s: %v", f, err))
			continue
		}
		text := string(data)
		anchors := headingAnchors(text)
		for _, m := range linkRE.FindAllStringSubmatch(text, -1) {
			target := m[1]
			switch {
			case strings.HasPrefix(target, "http://"),
				strings.HasPrefix(target, "https://"),
				strings.HasPrefix(target, "mailto:"):
				continue // external; not checked offline
			case strings.HasPrefix(target, "#"):
				if !anchors[strings.TrimPrefix(target, "#")] {
					problems = append(problems,
						fmt.Sprintf("%s: anchor %s does not match any heading", f, target))
				}
			default:
				path := target
				if i := strings.IndexByte(path, '#'); i >= 0 {
					path = path[:i]
				}
				resolved := filepath.Join(filepath.Dir(f), path)
				if _, err := os.Stat(resolved); err != nil {
					problems = append(problems,
						fmt.Sprintf("%s: link target %q does not exist (%s)", f, target, resolved))
				}
			}
		}
	}
	return problems
}

// headingAnchors collects GitHub-style anchor slugs for every heading:
// lowercase, spaces to dashes, punctuation dropped.
func headingAnchors(text string) map[string]bool {
	anchors := map[string]bool{}
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "#") {
			continue
		}
		title := strings.TrimSpace(strings.TrimLeft(line, "#"))
		slug := strings.ToLower(title)
		slug = strings.ReplaceAll(slug, " ", "-")
		slug = regexp.MustCompile(`[^a-z0-9\-_]`).ReplaceAllString(slug, "")
		anchors[slug] = true
	}
	return anchors
}

// ---- test functions ----

// testFunc is a top-level func Test*, Fuzz*, Benchmark* or Example*
// declared in a _test.go file.
type testFunc struct {
	file string // slash-separated path of the declaring file
	dir  string // its package directory
}

// testFuncs returns, by name, every func Test*, Fuzz*, Benchmark* and
// Example* declared in a _test.go file outside bench/ (a module of its
// own) and testdata.
func testFuncs() (map[string][]testFunc, error) {
	funcs := map[string][]testFunc{}
	err := filepath.WalkDir(".", func(file string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if file != "." && (name == "bench" || name == "testdata" || strings.HasPrefix(name, ".")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(file, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv != nil || !testNameRE.MatchString(fn.Name.Name) {
				continue
			}
			funcs[fn.Name.Name] = append(funcs[fn.Name.Name], testFunc{
				file: filepath.ToSlash(file),
				dir:  filepath.ToSlash(filepath.Dir(file)),
			})
		}
		return nil
	})
	return funcs, err
}

// testNameRE matches the name of a test, fuzz, benchmark or example
// function.
var testNameRE = regexp.MustCompile(`^(Test|Fuzz|Benchmark|Example)([A-Z0-9_]|$)`)

// ---- fuzz-smoke coverage ----

// fuzzLineRE matches one fuzz-smoke recipe line, capturing the package
// directory and the target name:
// $(GO) test ./internal/store/ -run '^$$' -fuzz FuzzWALReplay -fuzztime ...
var fuzzLineRE = regexp.MustCompile(`\btest\s+(\S+)\s.*-fuzz\s+(\S+)`)

// checkFuzzSmoke reports every fuzz target among tests that the
// Makefile's fuzz-smoke recipe does not run from the target's package
// directory.
func checkFuzzSmoke(tests map[string][]testFunc) []string {
	listed, err := fuzzSmokeTargets("Makefile")
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	var problems []string
	for name, decls := range tests {
		if !strings.HasPrefix(name, "Fuzz") {
			continue
		}
		for _, d := range decls {
			if !listed[d.dir+" "+name] {
				problems = append(problems, fmt.Sprintf(
					"%s: fuzz target %s has no `-fuzz %s` line for package directory %s in the Makefile's fuzz-smoke recipe",
					d.file, name, name, d.dir))
			}
		}
	}
	sort.Strings(problems)
	return problems
}

// fuzzSmokeTargets returns the "dir name" pairs the fuzz-smoke recipe
// runs, dir being the cleaned package directory ("internal/store", or
// "." for the root).
func fuzzSmokeTargets(makefile string) (map[string]bool, error) {
	data, err := os.ReadFile(makefile)
	if err != nil {
		return nil, err
	}
	listed := map[string]bool{}
	inRecipe := false
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "fuzz-smoke:") {
			inRecipe = true
			continue
		}
		if !inRecipe {
			continue
		}
		if !strings.HasPrefix(line, "\t") {
			break
		}
		if m := fuzzLineRE.FindStringSubmatch(line); m != nil {
			listed[path.Clean(m[1])+" "+m[2]] = true
		}
	}
	if !inRecipe {
		return nil, fmt.Errorf("%s has no fuzz-smoke recipe", makefile)
	}
	return listed, nil
}

// ---- oracle table ----

// oracleTableHeading introduces the table pairing each production path
// with its oracle and parity tests.
const oracleTableHeading = "### Production paths and their oracles"

// testRefRE matches a Test* or Fuzz* function name in prose.
var testRefRE = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_]\w*`)

// checkOracleTable reports every row of the oracle table in doc whose
// last (parity) column names no Test*/Fuzz* function, or names one that
// no _test.go defines.
func checkOracleTable(doc string, tests map[string][]testFunc) []string {
	data, err := os.ReadFile(doc)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	lines := strings.Split(string(data), "\n")
	start := -1
	for i, line := range lines {
		if strings.TrimSpace(line) == oracleTableHeading {
			start = i
			break
		}
	}
	if start < 0 {
		return []string{fmt.Sprintf("%s: no %q section", doc, oracleTableHeading)}
	}
	var problems []string
	n := 0 // table lines seen: the header, its separator, then rows
	for i := start + 1; i < len(lines); i++ {
		line := strings.TrimSpace(lines[i])
		if !strings.HasPrefix(line, "|") {
			if n > 0 {
				break
			}
			continue
		}
		if n++; n <= 2 {
			continue
		}
		cells := strings.Split(strings.Trim(line, "|"), "|")
		names := testRefRE.FindAllString(cells[len(cells)-1], -1)
		if len(names) == 0 {
			problems = append(problems, fmt.Sprintf("%s:%d: oracle table row names no Test* or Fuzz* function in its parity column", doc, i+1))
		}
		for _, name := range names {
			if len(tests[name]) == 0 {
				problems = append(problems, fmt.Sprintf("%s:%d: oracle table names %s, which no _test.go defines", doc, i+1, name))
			}
		}
	}
	if n <= 2 {
		problems = append(problems, fmt.Sprintf("%s: the %q table has no rows", doc, oracleTableHeading))
	}
	return problems
}

// ---- cited files ----

// codeSpanRE matches an inline code span on one line.
var codeSpanRE = regexp.MustCompile("`([^`]+)`")

// citedFileRE matches a code span that is a repository file path: a
// top-level directory, then a path whose last element ends in a
// lowercase file extension. Package paths (internal/replica_test) have
// no extension, symbols (internal/anonymize.Problem) end in a
// capitalized name, and a span with a * wildcard names no single file.
var citedFileRE = regexp.MustCompile(`^(?:internal|cmd|docs|bench|examples|\.github)/[^\s*]*\.[a-z0-9]+$`)

// checkCitedFiles reports every code span in docs (outside fenced blocks)
// that is a repository file path naming no existing file.
func checkCitedFiles(docs ...string) []string {
	var problems []string
	for _, doc := range docs {
		data, err := os.ReadFile(doc)
		if err != nil {
			problems = append(problems, fmt.Sprintf("docscheck: %v", err))
			continue
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range codeSpanRE.FindAllStringSubmatch(line, -1) {
				if !citedFileRE.MatchString(m[1]) {
					continue
				}
				if _, err := os.Stat(filepath.FromSlash(m[1])); err != nil {
					problems = append(problems, fmt.Sprintf("%s:%d: cites %s, which does not exist", doc, i+1, m[1]))
				}
			}
		}
	}
	return problems
}

// ---- cited tests ----

// citedTestRE matches a Test*, Fuzz*, Benchmark* or Example* name in
// prose, * standing for any run of name characters.
var citedTestRE = regexp.MustCompile(`\b(?:Test|Fuzz|Benchmark|Example)[A-Z0-9_*][A-Za-z0-9_*]*`)

// tableRow is one body row of a markdown table: its line number, its
// first cell and its last cell.
type tableRow struct {
	line        int
	first, last string
}

// tableRows returns the body rows of every table in doc; an escaped pipe
// (\|) stays inside its cell.
func tableRows(doc string) ([]tableRow, error) {
	data, err := os.ReadFile(doc)
	if err != nil {
		return nil, err
	}
	var rows []tableRow
	n := 0 // lines of the current table: its header, its separator, then rows
	for i, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if !strings.HasPrefix(line, "|") {
			n = 0
			continue
		}
		if n++; n <= 2 {
			continue
		}
		cells := strings.Split(strings.Trim(strings.ReplaceAll(line, `\|`, "\x00"), "|"), "|")
		cell := func(c string) string { return strings.ReplaceAll(strings.TrimSpace(c), "\x00", "|") }
		rows = append(rows, tableRow{line: i + 1, first: cell(cells[0]), last: cell(cells[len(cells)-1])})
	}
	return rows, nil
}

// checkVerifiedBy reports every name citedTestRE finds in the last column
// of a table row in doc that no test function defines; a name with a *
// must match at least one.
func checkVerifiedBy(doc string, tests map[string][]testFunc) []string {
	rows, err := tableRows(doc)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	var problems []string
	for _, r := range rows {
		for _, name := range citedTestRE.FindAllString(r.last, -1) {
			if len(matchTests(tests, name)) == 0 {
				problems = append(problems, fmt.Sprintf("%s:%d: cites %s, which no _test.go outside bench/ defines", doc, r.line, name))
			}
		}
	}
	return problems
}

// matchTests returns the names in tests that name stands for: itself,
// or, when name has a * wildcard, every name it matches.
func matchTests(tests map[string][]testFunc, name string) []string {
	if !strings.Contains(name, "*") {
		if len(tests[name]) == 0 {
			return nil
		}
		return []string{name}
	}
	re := regexp.MustCompile("^" + strings.ReplaceAll(regexp.QuoteMeta(name), `\*`, `\w*`) + "$")
	var names []string
	for defined := range tests {
		if re.MatchString(defined) {
			names = append(names, defined)
		}
	}
	return names
}

// ---- CI -run patterns ----

// ciWorkflow is the CI workflow whose go test -run lines checkCIRuns
// resolves.
const ciWorkflow = ".github/workflows/ci.yml"

// ciRunRE matches a go test command line with a quoted -run pattern,
// capturing the pattern.
var ciRunRE = regexp.MustCompile(`\bgo test\b.*\s-run[= ]'([^']*)'`)

// alternationRE matches an anchored alternation of names, ^(A|B)$,
// capturing the names.
var alternationRE = regexp.MustCompile(`^\^\(([\w|]+)\)\$$`)

// checkCIRuns reports every go test line of the workflow whose -run
// pattern names a function its package directory does not define: a
// name of an anchored alternation ^(A|B)$ that no Test*, Fuzz* or
// Example* function there has, or any other pattern (^$ aside, which
// runs nothing on purpose) that matches none. A line's packages are its
// ./dir arguments; ./... patterns span the module and are not checked.
func checkCIRuns(workflow string, tests map[string][]testFunc) []string {
	data, err := os.ReadFile(workflow)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: %v", err)}
	}
	byDir := map[string][]string{}
	for name, decls := range tests {
		if strings.HasPrefix(name, "Benchmark") {
			continue
		}
		for _, d := range decls {
			byDir[d.dir] = append(byDir[d.dir], name)
		}
	}
	var problems []string
	for i, line := range strings.Split(string(data), "\n") {
		m := ciRunRE.FindStringSubmatch(line)
		if m == nil || m[1] == "^$" {
			continue
		}
		pattern := m[1]
		re, err := regexp.Compile(pattern)
		if err != nil {
			problems = append(problems, fmt.Sprintf("%s:%d: -run pattern %q: %v", workflow, i+1, pattern, err))
			continue
		}
		for _, arg := range strings.Fields(line) {
			if !strings.HasPrefix(arg, "./") || strings.Contains(arg, "...") {
				continue
			}
			dir := path.Clean(arg)
			names := byDir[dir]
			if alt := alternationRE.FindStringSubmatch(pattern); alt != nil {
				for _, name := range strings.Split(alt[1], "|") {
					if !slices.Contains(names, name) {
						problems = append(problems, fmt.Sprintf("%s:%d: -run names %s, which %s does not define", workflow, i+1, name, arg))
					}
				}
				continue
			}
			if !slices.ContainsFunc(names, re.MatchString) {
				problems = append(problems, fmt.Sprintf("%s:%d: -run %q matches no test in %s", workflow, i+1, pattern, arg))
			}
		}
	}
	return problems
}

// ---- the executable claims ledger (make paper) ----

// pkgTests is what one row runs in one package directory.
type pkgTests struct {
	run, bench []string
}

// rowTests resolves a "Verified by" cell to the test functions it cites,
// by package directory: every Test*, Fuzz*, Example* or Benchmark* name
// (wildcards expanded), and every function but benchmarks declared in a
// cited _test.go file. Prose such as ckbench's workloads names no test
// function and is skipped; bench/ is outside the test index.
func rowTests(cell string, tests map[string][]testFunc) map[string]*pkgTests {
	byDir := map[string]*pkgTests{}
	add := func(name string, f testFunc) {
		pt := byDir[f.dir]
		if pt == nil {
			pt = &pkgTests{}
			byDir[f.dir] = pt
		}
		if strings.HasPrefix(name, "Benchmark") {
			pt.bench = append(pt.bench, name)
		} else {
			pt.run = append(pt.run, name)
		}
	}
	for _, cited := range citedTestRE.FindAllString(cell, -1) {
		for _, name := range matchTests(tests, cited) {
			for _, f := range tests[name] {
				add(name, f)
			}
		}
	}
	for _, m := range codeSpanRE.FindAllStringSubmatch(cell, -1) {
		if !citedFileRE.MatchString(m[1]) || !strings.HasSuffix(m[1], "_test.go") {
			continue
		}
		for name, decls := range tests {
			for _, f := range decls {
				if f.file == m[1] && !strings.HasPrefix(name, "Benchmark") {
					add(name, f)
				}
			}
		}
	}
	return byDir
}

// goTestArgs is the go test command line running pt in dir: its tests
// through -run, its benchmarks for one iteration each.
func goTestArgs(dir string, pt *pkgTests) []string {
	anchored := func(names []string) string {
		sort.Strings(names)
		return "^(" + strings.Join(slices.Compact(names), "|") + ")$"
	}
	run := "^$"
	if len(pt.run) > 0 {
		run = anchored(pt.run)
	}
	args := []string{"test", "./" + dir, "-run", run}
	if len(pt.bench) > 0 {
		args = append(args, "-bench", anchored(pt.bench), "-benchtime", "1x")
	}
	return args
}

// runPaper executes the claims ledger doc: for each table row it runs the
// cited tests with go test, one command per package directory, and
// prints the row's line, claim, tests and verdict; a failing row's go
// test output follows its line. A row citing no test function is listed
// as SKIP. It returns the exit status: 1 if any row failed.
func runPaper(doc string) int {
	tests, err := testFuncs()
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		return 1
	}
	rows, err := tableRows(doc)
	if err != nil {
		fmt.Fprintf(os.Stderr, "docscheck: %v\n", err)
		return 1
	}
	var passed, failed, skipped int
	for _, r := range rows {
		claim := []rune(r.first)
		if len(claim) > 60 {
			claim = append(claim[:59], '…')
		}
		byDir := rowTests(r.last, tests)
		dirs := make([]string, 0, len(byDir))
		var names []string
		for dir, pt := range byDir {
			dirs = append(dirs, dir)
			names = append(names, pt.run...)
			names = append(names, pt.bench...)
		}
		if len(dirs) == 0 {
			skipped++
			fmt.Printf("SKIP  %s:%d  %s  (no test function cited)\n", doc, r.line, string(claim))
			continue
		}
		sort.Strings(dirs)
		sort.Strings(names)
		var out bytes.Buffer
		verdict := "PASS"
		for _, dir := range dirs {
			cmd := exec.Command("go", goTestArgs(dir, byDir[dir])...)
			cmd.Stdout, cmd.Stderr = &out, &out
			if err := cmd.Run(); err != nil {
				verdict = "FAIL"
			}
		}
		fmt.Printf("%s  %s:%d  %s  <-  %s\n", verdict, doc, r.line, string(claim), strings.Join(slices.Compact(names), " "))
		if verdict == "FAIL" {
			failed++
			os.Stdout.Write(out.Bytes())
			continue
		}
		passed++
	}
	fmt.Printf("paper: %d rows passed, %d failed, %d cite no test function\n", passed, failed, skipped)
	if failed > 0 {
		return 1
	}
	return 0
}

// ---- doc-comment coverage ----

// checkDocComments parses the non-test Go files of one directory and
// reports every exported declaration lacking a doc comment.
func checkDocComments(dir, wantPkg string) []string {
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, parser.ParseComments)
	if err != nil {
		return []string{fmt.Sprintf("docscheck: parsing %s: %v", dir, err)}
	}
	pkg, ok := pkgs[wantPkg]
	if !ok {
		return []string{fmt.Sprintf("docscheck: package %q not found in %s", wantPkg, dir)}
	}
	var problems []string
	report := func(pos token.Pos, kind, name string) {
		p := fset.Position(pos)
		problems = append(problems,
			fmt.Sprintf("%s:%d: exported %s %s has no doc comment", p.Filename, p.Line, kind, name))
	}
	for _, file := range pkg.Files {
		for _, decl := range file.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if !d.Name.IsExported() || !exportedRecv(d) {
					continue
				}
				if d.Doc == nil {
					kind := "function"
					if d.Recv != nil {
						kind = "method"
					}
					report(d.Pos(), kind, d.Name.Name)
				}
			case *ast.GenDecl:
				checkGenDecl(d, report)
			}
		}
	}
	return problems
}

// exportedRecv reports whether a function has no receiver or an exported
// receiver type (methods on unexported types never render on pkg.go.dev).
func exportedRecv(d *ast.FuncDecl) bool {
	if d.Recv == nil || len(d.Recv.List) == 0 {
		return true
	}
	t := d.Recv.List[0].Type
	for {
		switch v := t.(type) {
		case *ast.StarExpr:
			t = v.X
		case *ast.IndexExpr: // generic receiver
			t = v.X
		case *ast.Ident:
			return v.IsExported()
		default:
			return true
		}
	}
}

// checkGenDecl walks a const/var/type declaration. A doc comment on the
// grouped declaration covers its specs; otherwise each exported spec
// needs its own.
func checkGenDecl(d *ast.GenDecl, report func(token.Pos, string, string)) {
	if d.Tok != token.CONST && d.Tok != token.VAR && d.Tok != token.TYPE {
		return
	}
	kind := map[token.Token]string{token.CONST: "const", token.VAR: "var", token.TYPE: "type"}[d.Tok]
	groupDoc := d.Doc != nil
	for _, spec := range d.Specs {
		switch sp := spec.(type) {
		case *ast.TypeSpec:
			if sp.Name.IsExported() && !groupDoc && sp.Doc == nil && sp.Comment == nil {
				report(sp.Pos(), kind, sp.Name.Name)
			}
		case *ast.ValueSpec:
			for _, name := range sp.Names {
				if name.IsExported() && !groupDoc && sp.Doc == nil && sp.Comment == nil {
					report(sp.Pos(), kind, name.Name)
				}
			}
		}
	}
}
