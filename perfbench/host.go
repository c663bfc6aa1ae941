package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strings"
	"syscall"
	"time"

	"pka/internal/gpu"
	"pka/internal/silicon"
	"pka/internal/workload"
)

// fingerprint describes the host a result was measured on, so a later
// comparison can tell whether two results share hardware.
func fingerprint() string {
	return fmt.Sprintf("cpu=%q nproc=%d gomaxprocs=%d go=%s os=%s/%s",
		cpuModel(), runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), runtime.GOOS, runtime.GOARCH)
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

// yardstick times a fixed pure-CPU loop — the silicon model on one fixed
// kernel — and returns the median nanoseconds per call over a few batches.
// It moves only with the host (and with internal/silicon), so dividing a
// host time by it gives a figure that compares across machines.
func yardstick() (float64, error) {
	w := workload.Find("Rodinia/gauss_208")
	if w == nil {
		return 0, fmt.Errorf("yardstick workload missing")
	}
	k := w.Kernel(0)
	dev := gpu.VoltaV100()
	const batches, calls = 7, 20000
	var perCall []float64
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < calls; i++ {
			if _, err := silicon.ExecuteKernel(dev, &k); err != nil {
				return 0, err
			}
		}
		perCall = append(perCall, float64(time.Since(start).Nanoseconds())/calls)
	}
	return median(perCall), nil
}

// peakRSSMB is the process's peak resident set size so far, in MB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Maxrss is in kilobytes on Linux
}
