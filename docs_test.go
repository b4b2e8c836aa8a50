package arckfs_test

import (
	"bufio"
	"errors"
	"go/ast"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"testing"

	"arckfs/internal/bench/experiments"
)

// proseDocs are the prose documents, one home per fact: README.md says
// what this is and where each fact lives, ARCHITECTURE.md how the system
// works now, EXPERIMENTS.md how much, docs/TESTING.md what catches what.
// DESIGN.md was folded into the other four; it stays on the list so that
// bringing it back counts against the budget.
var proseDocs = []string{"README.md", "ARCHITECTURE.md", "EXPERIMENTS.md", "DESIGN.md", "docs/TESTING.md"}

// proseBudget caps the bytes of proseDocs together.
const proseBudget = 121_000

// TestProseBudget keeps the prose documents under proseBudget.
func TestProseBudget(t *testing.T) {
	total := 0
	var sizes []string
	for _, doc := range proseDocs {
		data, ok := readDoc(t, doc)
		if !ok {
			continue
		}
		total += len(data)
		sizes = append(sizes, doc+" "+strconv.Itoa(len(data)))
	}
	if total > proseBudget {
		t.Errorf("the prose docs total %d bytes (%s), %d over the %d-byte budget. "+
			"Give each fact one home and cut the copies. "+
			"A change may lower proseBudget; raising it needs a CHANGES.md line saying why",
			total, strings.Join(sizes, ", "), total-proseBudget, proseBudget)
	}
}

// TestDocCommandsResolve keeps what the prose documents cite runnable:
// every `go test … -run <re>` (and -bench, -fuzz) matches a function in
// the packages it names, every arckbench -exp names an experiment, every
// backticked Test/Fuzz/Benchmark/Example name exists (a trailing * or …
// makes it a prefix, a pkg. qualifier pins its package), and every cited
// repository path exists.
func TestDocCommandsResolve(t *testing.T) {
	idx := indexTestFuncs(t)
	known := append(experiments.Names(), "all")
	ignored := gitignored(t)
	for _, doc := range proseDocs {
		data, ok := readDoc(t, doc)
		if !ok {
			continue
		}
		for _, unit := range codeUnits(string(data)) {
			for _, err := range checkUnit(unit, idx, known, ignored) {
				t.Errorf("%s: `%s`: %s", doc, unit, err)
			}
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := strings.TrimPrefix(m[1], "./")
			if strings.Contains(target, "://") || strings.HasPrefix(target, "#") {
				continue
			}
			target, _, _ = strings.Cut(target, "#")
			if _, err := os.Stat(filepath.Join(filepath.Dir(doc), target)); err != nil {
				t.Errorf("%s: link to %s: %v", doc, m[1], err)
			}
		}
	}
}

// TestEveryPackageHasADoc keeps `go doc ./internal/...` usable as the
// per-package reference: every internal/ directory with non-test Go files
// has one whose package clause opens with a "// Package ..." comment.
// testdata trees are not packages and are skipped.
func TestEveryPackageHasADoc(t *testing.T) {
	err := filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if d.Name() == "testdata" {
			return filepath.SkipDir
		}
		files, err := filepath.Glob(filepath.Join(path, "*.go"))
		if err != nil {
			return err
		}
		hasSrc, hasDoc := false, false
		for _, f := range files {
			if strings.HasSuffix(f, "_test.go") {
				continue
			}
			hasSrc = true
			data, err := os.ReadFile(f)
			if err != nil {
				return err
			}
			if packageDoc.Match(data) {
				hasDoc = true
			}
		}
		if hasSrc && !hasDoc {
			t.Errorf("missing package doc comment: %s", filepath.ToSlash(path))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

var (
	packageDoc = regexp.MustCompile(`(?m)^// Package `)
	mdLink     = regexp.MustCompile(`\]\(([^)\s]+)\)`)
	inlineCode = regexp.MustCompile("`([^`]+)`")
	funcName   = regexp.MustCompile(`(?:\b([a-z][a-z0-9]*)\.)?\b((?:Test|Fuzz|Benchmark|Example)[A-Z0-9_]\w*)([*…]?)`)
	expFlag    = regexp.MustCompile(`-exp[= ]+(\w+(?: ?\| ?\w+)*)`)
	symbol     = regexp.MustCompile(`\.[A-Z]\w*$`)
	// A repository path: a top-level entry followed by at least one more
	// element, not inside a longer word or URL.
	repoPath = regexp.MustCompile(`(?:^|[^\w./-])(?:\./)?(\.?[\w-]+(?:/[\w.*-]+)+/?)`)
)

func readDoc(t *testing.T, doc string) ([]byte, bool) {
	t.Helper()
	data, err := os.ReadFile(doc)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, false
	}
	if err != nil {
		t.Fatal(err)
	}
	return data, true
}

// codeUnits returns a document's inline code spans and the lines of its
// fenced blocks (a line ending in a backslash joined to the next), with
// line breaks inside a span read as spaces.
func codeUnits(doc string) []string {
	var units, prose []string
	inFence := false
	pending := ""
	for _, line := range strings.Split(doc, "\n") {
		if strings.HasPrefix(strings.TrimSpace(line), "```") {
			inFence = !inFence
			continue
		}
		if !inFence {
			prose = append(prose, line)
			continue
		}
		if l, ok := strings.CutSuffix(strings.TrimSpace(line), `\`); ok {
			pending += l + " "
			continue
		}
		units = append(units, pending+strings.TrimSpace(line))
		pending = ""
	}
	for _, m := range inlineCode.FindAllStringSubmatch(strings.Join(prose, "\n"), -1) {
		units = append(units, strings.Join(strings.Fields(m[1]), " "))
	}
	return units
}

// testFuncs indexes a module's Test, Benchmark, Fuzz and Example
// functions by directory and by package name.
type testFuncs struct {
	byDir map[string][]string
	byPkg map[string][]string
	all   []string
}

func indexTestFuncs(t *testing.T) *testFuncs {
	idx := &testFuncs{byDir: map[string][]string{}, byPkg: map[string][]string{}}
	walkModuleGo(t, func(_ *token.FileSet, path string, file *ast.File) {
		if !strings.HasSuffix(path, "_test.go") {
			return
		}
		dir, pkg := filepath.Dir(path), strings.TrimSuffix(file.Name.Name, "_test")
		if _, ok := idx.byDir[dir]; !ok {
			idx.byDir[dir] = nil // a package with tests, maybe none named
		}
		for _, d := range file.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok || fd.Recv != nil || !funcName.MatchString(fd.Name.Name) {
				continue
			}
			idx.byDir[dir] = append(idx.byDir[dir], fd.Name.Name)
			idx.byPkg[pkg] = append(idx.byPkg[pkg], fd.Name.Name)
			idx.all = append(idx.all, fd.Name.Name)
		}
	})
	return idx
}

// dirs resolves go test package patterns to the directories they name.
func (idx *testFuncs) dirs(pkgs []string) ([]string, error) {
	var out []string
	for _, p := range pkgs {
		p = filepath.Clean(p)
		if root, ok := strings.CutSuffix(p, "..."); ok {
			root = filepath.Clean(root)
			for dir := range idx.byDir {
				if root == "." || dir == root || strings.HasPrefix(dir, root+"/") {
					out = append(out, dir)
				}
			}
			continue
		}
		if _, ok := idx.byDir[p]; !ok {
			return nil, errors.New("package " + p + " has no tests")
		}
		out = append(out, p)
	}
	return out, nil
}

// patternKinds are the functions each go test pattern flag selects.
var patternKinds = map[string][]string{"-run": {"Test", "Fuzz", "Example"}, "-bench": {"Benchmark"}, "-fuzz": {"Fuzz"}}

// testFlagValues are the go test flags that take a separate value.
var testFlagValues = map[string]bool{
	"-run": true, "-bench": true, "-fuzz": true, "-count": true, "-benchtime": true,
	"-fuzztime": true, "-cpu": true, "-timeout": true,
}

func checkUnit(unit string, idx *testFuncs, known []string, ignored []string) []string {
	var errs []string
	if _, cmd, ok := strings.Cut(unit, "go test"); ok {
		errs = append(errs, checkGoTest(shellWords(cmd), idx)...)
	} else {
		for _, m := range funcName.FindAllStringSubmatch(unit, -1) {
			pool := idx.all
			if m[1] != "" {
				pool = idx.byPkg[m[1]]
			}
			found := slices.ContainsFunc(pool, func(n string) bool {
				return n == m[2] || m[3] != "" && strings.HasPrefix(n, m[2])
			})
			if !found {
				errs = append(errs, "no function "+m[0])
			}
		}
	}
	for _, m := range expFlag.FindAllStringSubmatch(unit, -1) {
		for _, name := range strings.Split(m[1], "|") {
			if name = strings.TrimSpace(name); !slices.Contains(known, name) {
				errs = append(errs, "arckbench has no experiment "+name)
			}
		}
	}
	for _, m := range repoPath.FindAllStringSubmatch(unit, -1) {
		if err := checkPath(m[1], ignored); err != nil {
			errs = append(errs, err.Error())
		}
	}
	return errs
}

// checkGoTest checks the words after "go test": the packages must have
// tests, and -run, -bench and -fuzz must each match a function in them.
func checkGoTest(words []string, idx *testFuncs) []string {
	var pkgs []string
	pats := map[string]string{}
	for i := 0; i < len(words); i++ {
		w := words[i]
		if !strings.HasPrefix(w, "-") {
			pkgs = append(pkgs, w)
			continue
		}
		name, val, hasVal := strings.Cut(w, "=")
		if !hasVal && testFlagValues[name] && i+1 < len(words) {
			i++
			val, hasVal = words[i], true
		}
		if _, ok := patternKinds[name]; ok && hasVal {
			pats[name] = val
		}
	}
	if len(pkgs) == 0 {
		pkgs = []string{"."}
	}
	dirs, err := idx.dirs(pkgs)
	if err != nil {
		return []string{err.Error()}
	}
	var errs []string
	for flag, pat := range pats {
		if pat == "^$" {
			continue // runs nothing on purpose
		}
		top, _, _ := strings.Cut(pat, "/")
		re, err := regexp.Compile(top)
		if err != nil {
			errs = append(errs, flag+" "+pat+": "+err.Error())
			continue
		}
		kinds := patternKinds[flag]
		matched := false
		for _, dir := range dirs {
			for _, fn := range idx.byDir[dir] {
				kind := slices.ContainsFunc(kinds, func(k string) bool { return strings.HasPrefix(fn, k) })
				matched = matched || kind && re.MatchString(fn)
			}
		}
		if !matched {
			errs = append(errs, flag+" "+pat+" matches no function in "+strings.Join(pkgs, " "))
		}
	}
	return errs
}

// checkPath fails a path cited into this repository that does not exist.
// Paths under a .gitignore entry are made by running, not committed.
func checkPath(p string, ignored []string) error {
	p = strings.TrimPrefix(p, "./")
	top, _, _ := strings.Cut(p, "/")
	if _, err := os.Stat(top); err != nil {
		return nil // not a path into this repository
	}
	for _, ig := range ignored {
		if strings.HasPrefix(p+"/", ig) {
			return nil
		}
	}
	// internal/pmem.Batch names a package; internal/bench/* its parent.
	p = symbol.ReplaceAllString(strings.TrimSuffix(p, "/..."), "")
	if i := strings.Index(p, "*"); i >= 0 {
		p = filepath.Dir(p[:i+1])
	}
	_, err := os.Stat(strings.TrimSuffix(p, "."))
	return err
}

// gitignored lists the .gitignore entries, as directory prefixes: paths
// under them are made by building, testing and running, not committed.
func gitignored(t *testing.T) []string {
	f, err := os.Open(".gitignore")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var out []string
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if line := strings.TrimSpace(sc.Text()); line != "" && !strings.HasPrefix(line, "#") {
			out = append(out, strings.TrimSuffix(strings.TrimPrefix(line, "/"), "/")+"/")
		}
	}
	return out
}

// shellWords splits a command line into words, honouring single and
// double quotes, and stops at a comment or a shell operator.
func shellWords(s string) []string {
	var words []string
	var cur strings.Builder
	inWord := false
	var quote rune
	for _, r := range s {
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
				words = append(words, cur.String())
				cur.Reset()
				inWord = false
			}
		case strings.ContainsRune("#;|&)>", r):
			if inWord {
				words = append(words, cur.String())
			}
			return words
		default:
			cur.WriteRune(r)
			inWord = true
		}
	}
	if inWord {
		words = append(words, cur.String())
	}
	return words
}
