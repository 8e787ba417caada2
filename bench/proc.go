package main

import (
	"bufio"
	"bytes"
	"os"
	"runtime/metrics"
	"strconv"
	"strings"
	"syscall"
)

// procSample is one reading of the process counters the harness takes at
// slice boundaries. All fields are cumulative since process start.
type procSample struct {
	cpuSec     float64 // user + system CPU (getrusage)
	allocs     float64 // heap objects allocated, tiny allocations included
	allocBytes float64
	gcCPUSec   float64
	gcCycles   float64
}

// Reading through runtime/metrics does not stop the world, unlike
// runtime.ReadMemStats; allocs + tiny allocs equals MemStats.Mallocs.
var procMetricNames = []string{
	"/gc/heap/allocs:objects",
	"/gc/heap/tiny/allocs:objects",
	"/gc/heap/allocs:bytes",
	"/cpu/classes/gc/total:cpu-seconds",
	"/gc/cycles/total:gc-cycles",
}

func readProc() procSample {
	samples := make([]metrics.Sample, len(procMetricNames))
	for i, n := range procMetricNames {
		samples[i].Name = n
	}
	metrics.Read(samples)
	val := func(i int) float64 {
		switch samples[i].Value.Kind() {
		case metrics.KindUint64:
			return float64(samples[i].Value.Uint64())
		case metrics.KindFloat64:
			return samples[i].Value.Float64()
		}
		return 0
	}
	var ru syscall.Rusage
	// RUSAGE_SELF cannot fail with a valid pointer.
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return procSample{
		cpuSec:     tv(ru.Utime) + tv(ru.Stime),
		allocs:     val(0) + val(1),
		allocBytes: val(2),
		gcCPUSec:   val(3),
		gcCycles:   val(4),
	}
}

// resetPeakRSS zeroes the kernel's VmHWM high-water mark so that each run
// of a suite reports its own peak; best effort (needs Linux >= 4.0).
func resetPeakRSS() {
	_ = os.WriteFile("/proc/self/clear_refs", []byte("5"), 0)
}

// peakRSSMiB reads VmHWM; 0 when /proc is unavailable.
func peakRSSMiB() float64 {
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0
	}
	sc := bufio.NewScanner(bytes.NewReader(raw))
	for sc.Scan() {
		rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:")
		if !ok {
			continue
		}
		fields := strings.Fields(rest)
		if len(fields) == 0 {
			return 0
		}
		kb, err := strconv.ParseFloat(fields[0], 64)
		if err != nil {
			return 0
		}
		return kb / 1024
	}
	return 0
}
