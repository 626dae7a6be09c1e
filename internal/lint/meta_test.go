package lint

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSuiteMeta is the analyzer registry's own contract: every
// registered analyzer has a unique identifier-shaped name, real
// documentation, and a fixture pair under testdata/src/<name>/ — at
// least one package with `// want` expectations (proof it catches its
// bug class) and at least one without (proof it stays quiet on
// conforming code).
func TestSuiteMeta(t *testing.T) {
	seen := make(map[string]bool)
	for _, a := range Suite() {
		if a.Name == "" || !isIdentifier(a.Name) {
			t.Errorf("analyzer name %q is not a valid identifier", a.Name)
			continue
		}
		if seen[a.Name] {
			t.Errorf("analyzer name %q registered twice", a.Name)
		}
		seen[a.Name] = true
		if len(strings.TrimSpace(a.Doc)) < 20 {
			t.Errorf("analyzer %s has no meaningful doc string", a.Name)
		}
		if a.Run == nil {
			t.Errorf("analyzer %s has no Run function", a.Name)
		}
		checkFixtures(t, a.Name)
	}
}

// checkFixtures verifies the positive/negative fixture pair exists.
func checkFixtures(t *testing.T, name string) {
	t.Helper()
	root := filepath.Join("testdata", "src", name)
	var positive, negative bool
	err := filepath.WalkDir(root, func(path string, d os.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		if strings.Contains(string(data), "// want `") {
			positive = true
		} else {
			negative = true
		}
		return nil
	})
	if err != nil {
		t.Errorf("analyzer %s has no fixture directory %s: %v", name, root, err)
		return
	}
	if !positive {
		t.Errorf("analyzer %s has no positive fixture (a file under %s with `// want` expectations)", name, root)
	}
	if !negative {
		t.Errorf("analyzer %s has no negative fixture (a want-free file under %s)", name, root)
	}
}

func isIdentifier(s string) bool {
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r == '_':
		case r >= '0' && r <= '9':
			if i == 0 {
				return false
			}
		default:
			return false
		}
	}
	return len(s) > 0
}
