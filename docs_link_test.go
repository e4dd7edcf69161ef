package thetis

// Documentation checkers (wired into `make check` as linkcheck): every
// relative markdown link in the repo's .md files must resolve to an
// existing file or directory, so docs cannot silently drift as files move,
// and docs/OBSERVABILITY.md's metric tables must name exactly the families
// internal/obs/std.go registers.

import (
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// mdLink matches inline markdown links [text](target). Reference-style
// links are rare in this repo and intentionally not matched.
var mdLink = regexp.MustCompile(`\]\(([^)\s]+)\)`)

func TestDocLinks(t *testing.T) {
	var mdFiles []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if name == ".git" || name == "testdata" || strings.HasPrefix(name, ".claude") {
				return filepath.SkipDir
			}
			return nil
		}
		if strings.HasSuffix(d.Name(), ".md") {
			mdFiles = append(mdFiles, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(mdFiles) == 0 {
		t.Fatal("no markdown files found — is the test running from the repo root?")
	}

	checked := 0
	for _, md := range mdFiles {
		data, err := os.ReadFile(md)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range mdLink.FindAllStringSubmatch(string(data), -1) {
			target := m[1]
			// External links, mail links, and intra-document anchors are out
			// of scope; this checker keeps *file* references honest.
			if strings.Contains(target, "://") || strings.HasPrefix(target, "mailto:") || strings.HasPrefix(target, "#") {
				continue
			}
			// Strip a fragment: docs/FOO.md#section must check docs/FOO.md.
			if i := strings.IndexByte(target, '#'); i >= 0 {
				target = target[:i]
			}
			if target == "" {
				continue
			}
			resolved := filepath.Join(filepath.Dir(md), target)
			if _, err := os.Stat(resolved); err != nil {
				t.Errorf("%s: broken link %q (resolved %s)", md, m[1], resolved)
			}
			checked++
		}
	}
	if checked == 0 {
		t.Fatal("no relative links checked — regex or corpus changed?")
	}
	t.Logf("checked %d relative links across %d markdown files", checked, len(mdFiles))
}

// metricLiteral matches the family names internal/obs/std.go registers; a
// literal ending in "_" is a prefix completed at run time
// (thetis_ingest_<kind>_…). metricRow matches a family's row in a
// docs/OBSERVABILITY.md table.
var (
	metricLiteral = regexp.MustCompile(`"(thetis_[a-z_]+)"`)
	metricRow     = regexp.MustCompile("(?m)^\\| `(thetis_[a-z_]+)`")
)

// TestObservabilityDocMatchesRegistry: every registered metric family has a
// row in a docs/OBSERVABILITY.md table and every row names a registered
// family, so deleting a metric cannot leave a stale row behind.
func TestObservabilityDocMatchesRegistry(t *testing.T) {
	src, err := os.ReadFile("internal/obs/std.go")
	if err != nil {
		t.Fatal(err)
	}
	doc, err := os.ReadFile("docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	registered := map[string]bool{}
	var prefixes []string
	for _, m := range metricLiteral.FindAllSubmatch(src, -1) {
		if name := string(m[1]); strings.HasSuffix(name, "_") {
			prefixes = append(prefixes, name)
		} else {
			registered[name] = true
		}
	}
	if len(registered) == 0 {
		t.Fatal("no registered families found — did std.go move?")
	}
	documented := map[string]bool{}
	prefixDocumented := map[string]bool{}
	for _, m := range metricRow.FindAllSubmatch(doc, -1) {
		name := string(m[1])
		documented[name] = true
		for _, p := range prefixes {
			if strings.HasPrefix(name, p) {
				prefixDocumented[p] = true
				registered[name] = true
			}
		}
	}
	for name := range registered {
		if !documented[name] {
			t.Errorf("%s is registered in internal/obs/std.go but has no row in docs/OBSERVABILITY.md", name)
		}
	}
	for _, p := range prefixes {
		if !prefixDocumented[p] {
			t.Errorf("no %s* family has a row in docs/OBSERVABILITY.md", p)
		}
	}
	for name := range documented {
		if !registered[name] {
			t.Errorf("docs/OBSERVABILITY.md documents %s, which internal/obs/std.go does not register", name)
		}
	}
}

// changesEntry matches the two forms a PR entry takes in CHANGES.md: a
// list entry ("- PR 7 (2026-08-08): ..." or the PR 6 tombstone
// "- PR 6: no entry ...") and a section heading ("## PR 5 — ...").
var changesEntry = regexp.MustCompile(`^(?:- |## )PR (\d+)[^\d]`)

// TestChangesLogNumbering keeps CHANGES.md honestly one-entry-per-PR:
// every PR number from 1 to the maximum recorded must appear exactly
// once — either as a real entry or as an explicit tombstone (like PR 6's
// "no entry was recorded" line). A gap means a session forgot to log
// itself; a duplicate means two entries claim the same PR.
func TestChangesLogNumbering(t *testing.T) {
	data, err := os.ReadFile("CHANGES.md")
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int][]string{}
	max := 0
	for _, line := range strings.Split(string(data), "\n") {
		m := changesEntry.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		var n int
		for _, d := range m[1] {
			n = n*10 + int(d-'0')
		}
		seen[n] = append(seen[n], line)
		if n > max {
			max = n
		}
	}
	if max == 0 {
		t.Fatal("no PR entries found in CHANGES.md — format changed?")
	}
	for n := 1; n <= max; n++ {
		switch len(seen[n]) {
		case 0:
			t.Errorf("CHANGES.md: PR %d has no entry and no tombstone (max recorded is PR %d)", n, max)
		case 1:
			// exactly one entry — good
		default:
			t.Errorf("CHANGES.md: PR %d has %d entries:\n%s", n, len(seen[n]), strings.Join(seen[n], "\n"))
		}
	}
	t.Logf("CHANGES.md: PRs 1..%d each recorded exactly once", max)
}
