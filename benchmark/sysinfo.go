package main

import (
	"bufio"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"time"

	"plshuffle/internal/tensor"
)

// metadata identifies the machine, toolchain and settings of a report.
type metadata struct {
	GoVersion  string         `json:"go_version"`
	NumCPU     int            `json:"nproc"`
	GOMAXPROCS int            `json:"gomaxprocs"`
	CPUModel   string         `json:"cpu_model"`
	GemmKernel string         `json:"gemm_kernel"`
	GitCommit  string         `json:"git_commit"`
	Seed       uint64         `json:"seed"`
	Seconds    float64        `json:"run_seconds"`
	Epochs     map[string]int `json:"epochs_per_run"`
	Date       string         `json:"date"`
}

func collectMetadata(seed uint64, seconds float64) metadata {
	m := metadata{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel:   cpuModel(),
		GemmKernel: tensor.GemmKernelName(),
		GitCommit:  gitCommit(),
		Seed:       seed,
		Seconds:    seconds,
		Epochs:     map[string]int{},
		Date:       time.Now().UTC().Format(time.RFC3339),
	}
	for _, w := range workloads {
		m.Epochs[w.name] = w.epochs
	}
	return m
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// gitCommit is best effort: the driver's checkout is not a git repository,
// and git must not go looking for one above it.
func gitCommit() string {
	cmd := exec.Command("git", "rev-parse", "HEAD")
	if wd, err := os.Getwd(); err == nil {
		cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(wd))
	}
	out, err := cmd.Output()
	if err != nil {
		return "unknown"
	}
	return strings.TrimSpace(string(out))
}

// resetPeakRSS returns freed memory to the OS and restarts the kernel's
// resident-set high-water mark, so peakRSSMiB covers only what follows.
// Where /proc/self/clear_refs is not writable the mark covers the whole
// process instead.
func resetPeakRSS() {
	debug.FreeOSMemory()
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0) // unsupported: keep the process-wide mark
}

// peakRSSMiB is VmHWM. Without procfs it falls back to the bytes the Go
// runtime obtained from the OS, so the metric is never absent.
func peakRSSMiB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
				if kb, err := strconv.ParseFloat(strings.TrimSpace(strings.TrimSuffix(strings.TrimSpace(rest), "kB")), 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.Sys) / (1 << 20)
}
