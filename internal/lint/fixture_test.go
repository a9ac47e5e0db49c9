package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// The fixture loader is shared across tests: one `go list -deps -export`
// over the module pays for every fixture package and the self-checks.
var (
	loaderOnce sync.Once
	loaderVal  *Loader
	loaderErr  error
)

func moduleLoader(t *testing.T) *Loader {
	t.Helper()
	loaderOnce.Do(func() {
		loaderVal, loaderErr = NewLoader("../..")
	})
	if loaderErr != nil {
		t.Fatalf("loading module: %v", loaderErr)
	}
	return loaderVal
}

// want is one expectation parsed from a fixture's `// want "regexp"`
// comment: a diagnostic on that line whose message matches.
type want struct {
	file string
	line int
	re   *regexp.Regexp
	hit  bool
}

var wantRE = regexp.MustCompile(`//\s*want\s+("(?:[^"\\]|\\.)*")`)

func collectWants(t *testing.T, pkg *Package) []*want {
	t.Helper()
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pat, err := strconv.Unquote(m[1])
				if err != nil {
					t.Fatalf("%s: bad want string %s: %v", pkg.Fset.Position(c.Pos()), m[1], err)
				}
				re, err := regexp.Compile(pat)
				if err != nil {
					t.Fatalf("%s: bad want regexp %q: %v", pkg.Fset.Position(c.Pos()), pat, err)
				}
				pos := pkg.Fset.Position(c.Pos())
				wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
			}
		}
	}
	return wants
}

// runFixture type-checks testdata/<dir>, applies the analyzer, and
// compares the surviving diagnostics against the `// want` comments:
// every want must be hit, every diagnostic must be wanted.
func runFixture(t *testing.T, dir string, a *Analyzer) {
	t.Helper()
	loader := moduleLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("testdata", dir))
	if err != nil {
		t.Fatalf("loading fixture %s: %v", dir, err)
	}
	diags := RunAnalyzers(pkg, []*Analyzer{a})
	wants := collectWants(t, pkg)

	matched := 0
	for _, d := range diags {
		found := false
		for _, w := range wants {
			if !w.hit && w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(d.Message) {
				w.hit = true
				found = true
				matched++
				break
			}
		}
		if !found {
			t.Errorf("unexpected diagnostic at %s: %s: %s", d.Pos, d.Analyzer, d.Message)
		}
	}
	for _, w := range wants {
		if !w.hit {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none", w.file, w.line, w.re)
		}
	}
	if len(wants) > 0 && matched == 0 {
		t.Errorf("fixture %s: no want matched — the analyzer found nothing", dir)
	}
}

func TestSnapshotOnceFixture(t *testing.T)   { runFixture(t, "snapshotonce", AnalyzerSnapshotOnce) }
func TestImmutableAliasFixture(t *testing.T) { runFixture(t, "immutablealias", AnalyzerImmutableAlias) }
func TestPinPairFixture(t *testing.T)        { runFixture(t, "pinpair", AnalyzerPinPair) }
func TestHotPathAllocFixture(t *testing.T)   { runFixture(t, "hotpathalloc", AnalyzerHotPathAlloc) }
func TestSentinelErrFixture(t *testing.T)    { runFixture(t, "sentinelerr", AnalyzerSentinelErr) }
func TestErrWrapChainFixture(t *testing.T)   { runFixture(t, "errwrapchain", AnalyzerSentinelErr) }
func TestExhaustiveEnumFixture(t *testing.T) { runFixture(t, "exhaustiveenum", AnalyzerExhaustiveEnum) }

// TestDirectiveMechanics pins the malformed-//maxbr:ignore diagnostics
// and the suppression semantics: the three malformed directives are
// reported under the "directive" pseudo-analyzer, the reasoned
// suppression holds, and the unsuppressed comparison is still caught.
func TestDirectiveMechanics(t *testing.T) {
	loader := moduleLoader(t)
	pkg, err := loader.LoadDir(filepath.Join("testdata", "directives"))
	if err != nil {
		t.Fatalf("loading fixture: %v", err)
	}
	diags := RunAnalyzers(pkg, []*Analyzer{AnalyzerSentinelErr})

	var got []string
	for _, d := range diags {
		got = append(got, fmt.Sprintf("%s: %s", d.Analyzer, d.Message))
	}
	expects := []struct{ analyzer, substr string }{
		{"directive", "needs an analyzer name and a reason"},
		{"directive", "names unknown analyzer"},
		{"directive", "carries no reason"},
		{"sentinelerr", "comparing against sentinel ErrDirective"},
	}
	if len(diags) != len(expects) {
		t.Fatalf("got %d diagnostics, want %d:\n%s", len(diags), len(expects), strings.Join(got, "\n"))
	}
	for _, e := range expects {
		found := false
		for _, d := range diags {
			if d.Analyzer == e.analyzer && strings.Contains(d.Message, e.substr) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("missing %s diagnostic containing %q; got:\n%s", e.analyzer, e.substr, strings.Join(got, "\n"))
		}
	}
	// The reasoned suppression must cover exactly one comparison: the one
	// inside properlySuppressed. Count sentinelerr diagnostics to prove
	// the other identity comparison was filtered, not missed.
	n := 0
	for _, d := range diags {
		if d.Analyzer == "sentinelerr" {
			n++
		}
	}
	if n != 1 {
		t.Errorf("want exactly 1 surviving sentinelerr diagnostic, got %d", n)
	}
}

// TestAnalyzerNamesStable pins the //maxbr:ignore vocabulary.
func TestAnalyzerNamesStable(t *testing.T) {
	var names []string
	for _, a := range Analyzers() {
		names = append(names, a.Name)
	}
	want := []string{
		"snapshotonce", "immutablealias", "pinpair", "hotpathalloc", "sentinelerr", "exhaustiveenum",
	}
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("analyzer names %v, want %v", names, want)
	}
}
