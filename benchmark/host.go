package main

import (
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
)

// printHost prints the facts that explain a noisy run.
func printHost(w io.Writer) {
	model := "unknown"
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				model = strings.TrimSpace(v)
				break
			}
		}
	}
	load := "unknown"
	if b, err := os.ReadFile("/proc/loadavg"); err == nil {
		load = strings.TrimSpace(string(b))
	}
	fmt.Fprintf(w, "host nproc=%d GOMAXPROCS=%d go=%s cpu=%q loadavg=%q\n",
		runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), model, load)
}
