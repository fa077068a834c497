package experiments

import (
	"os"
	"os/exec"
	"path/filepath"
	"testing"
)

// TestGitCommitDirtyOnlyOnCode: a figure's rewritten BENCH_*.json
// leaves the host clean, while an edited Go file (seen from the root
// or a subdirectory) or go.mod marks it dirty.
func TestGitCommitDirtyOnlyOnCode(t *testing.T) {
	if _, err := exec.LookPath("git"); err != nil {
		t.Skip("git not installed")
	}
	dir := t.TempDir()
	// Keep git from finding a work tree above the temporary directory.
	t.Setenv("GIT_CEILING_DIRECTORIES", filepath.Dir(dir))
	write := func(name, content string) {
		t.Helper()
		path := filepath.Join(dir, name)
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	git := func(args ...string) {
		t.Helper()
		cmd := exec.Command("git", append([]string{"-c", "user.name=t", "-c", "user.email=t@example.com", "-c", "commit.gpgsign=false"}, args...)...)
		cmd.Dir = dir
		if out, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("git %v: %v\n%s", args, err, out)
		}
	}
	if commit, dirty := gitCommit(dir); commit != "unknown" || dirty {
		t.Fatalf("outside a work tree: gitCommit = %q, %v; want unknown, false", commit, dirty)
	}
	write("go.mod", "module m\n")
	write("sub/a.go", "package sub\n")
	write("BENCH_x.json", "{}\n")
	git("init", "-q")
	git("add", "-A")
	git("commit", "-q", "-m", "init")

	check := func(what, at string, want bool) {
		t.Helper()
		commit, dirty := gitCommit(filepath.Join(dir, at))
		if len(commit) != 40 || dirty != want {
			t.Errorf("%s: gitCommit = %q, %v; want a commit hash, dirty %v", what, commit, dirty, want)
		}
	}
	check("clean", "", false)
	write("BENCH_x.json", "{\"rows\": []}\n")
	check("rewritten figure", "", false)
	write("go.mod", "module m\n\ngo 1.24\n")
	check("edited go.mod", "", true)
	git("checkout", "--", "go.mod")
	write("sub/a.go", "package sub\n\nfunc F() {}\n")
	check("edited Go file", "", true)
	check("edited Go file, from a subdirectory", "sub", true)
}
