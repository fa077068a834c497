package experiments

import (
	"fmt"
	"runtime"
)

// Host is the header every committed BENCH_*.json figure starts with:
// the toolchain and machine its measurements were taken on. Each
// bench type embeds it first, so the header fields lead the JSON.
type Host struct {
	Go         string `json:"go"`
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
}

// CurrentHost describes the running process.
func CurrentHost() Host {
	return Host{
		Go:         runtime.Version(),
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
	}
}

// Describe renders the header for a figure's footer line. (It is not
// String: embedding would promote that to every bench type and make
// fmt print a whole sweep as its host.)
func (h Host) Describe() string {
	return fmt.Sprintf("%s %s/%s, %d CPUs, GOMAXPROCS %d", h.Go, h.GOOS, h.GOARCH, h.NumCPU, h.GOMAXPROCS)
}
