package experiments

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"strings"
)

// Host is the header every committed BENCH_*.json figure starts with:
// the toolchain and machine its measurements were taken on, and the
// commit they measure. Each bench type embeds it first, so the header
// fields lead the JSON.
type Host struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit is the checked-out commit, "unknown" outside a git work
	// tree; Dirty reports uncommitted changes to tracked code (Go
	// files and go.mod), so a figure's own rewritten BENCH_*.json
	// does not mark the next run dirty.
	Commit string `json:"commit"`
	Dirty  bool   `json:"dirty"`
}

// CurrentHost describes the running process.
func CurrentHost() Host {
	commit, dirty := gitCommit("")
	return Host{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     commit,
		Dirty:      dirty,
	}
}

// gitCommit reads the commit checked out in dir ("" for the working
// directory) and whether tracked Go files or go.mod, anywhere in the
// work tree, differ from it; outside a git work tree it reports
// "unknown".
func gitCommit(dir string) (string, bool) {
	git := func(args ...string) ([]byte, error) {
		cmd := exec.Command("git", args...)
		cmd.Dir = dir
		return cmd.Output()
	}
	head, err := git("rev-parse", "HEAD")
	if err != nil {
		return "unknown", false
	}
	status, err := git("status", "--porcelain", "--untracked-files=no", "--", ":(top)*.go", ":(top)go.mod")
	return strings.TrimSpace(string(head)), err != nil || len(bytes.TrimSpace(status)) > 0
}

// Describe renders the header for a figure's footer line. (It is not
// String: embedding would promote that to every bench type and make
// fmt print a whole sweep as its host.)
func (h Host) Describe() string {
	return fmt.Sprintf("%s %s/%s, %d CPUs, GOMAXPROCS %d", h.Go, h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS)
}

// WriteJSON writes a figure machine-readably, as the committed
// BENCH_*.json files are: indented JSON with a trailing newline.
func WriteJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
