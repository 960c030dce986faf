package main

import (
	"bufio"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
)

// procField returns the value of one "Key:\tvalue" line of a /proc
// status-style file, or "" when the key is missing.
func procField(path, key string) string {
	f, err := os.Open(path)
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == key {
			return strings.TrimSpace(v)
		}
	}
	return ""
}

// peakRSSMB reads a process's resident-set high-water mark (VmHWM) in
// megabytes; pid 0 is this process.
func peakRSSMB(pid int) (float64, error) {
	path := "/proc/self/status"
	if pid != 0 {
		path = fmt.Sprintf("/proc/%d/status", pid)
	}
	kb, err := strconv.ParseFloat(strings.TrimSuffix(procField(path, "VmHWM"), " kB"), 64)
	if err != nil {
		return 0, fmt.Errorf("VmHWM of %s: %w", path, err)
	}
	return kb / 1024, nil
}

// cpuModel names the processor for the run header.
func cpuModel() string {
	if m := procField("/proc/cpuinfo", "model name"); m != "" {
		return m
	}
	return "unknown"
}

// childCPUSeconds reads a running child's user+system CPU time from
// /proc/<pid>/stat, whose clock ticks are 1/100 s on Linux.
func childCPUSeconds(pid int) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// The command name (field 2) may hold spaces; fields are counted
	// from the closing parenthesis.
	_, rest, ok := strings.Cut(string(data), ") ")
	fields := strings.Fields(rest)
	if !ok || len(fields) < 13 {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	utime, err1 := strconv.ParseFloat(fields[11], 64)
	stime, err2 := strconv.ParseFloat(fields[12], 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("malformed /proc/%d/stat", pid)
	}
	return (utime + stime) / 100, nil
}

// usage is a reading of this process's cumulative cost counters.
type usage struct {
	cpu     float64 // user+system seconds
	alloc   uint64  // bytes allocated
	mallocs uint64
	gcs     uint32
	pauseNs uint64
}

func readUsage() usage {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return usage{
		cpu:     tv(ru.Utime) + tv(ru.Stime),
		alloc:   ms.TotalAlloc,
		mallocs: ms.Mallocs,
		gcs:     ms.NumGC,
		pauseNs: ms.PauseTotalNs,
	}
}

// since returns the cost between an earlier reading and this one.
func (u usage) since(from usage) usage {
	return usage{
		cpu:     u.cpu - from.cpu,
		alloc:   u.alloc - from.alloc,
		mallocs: u.mallocs - from.mallocs,
		gcs:     u.gcs - from.gcs,
		pauseNs: u.pauseNs - from.pauseNs,
	}
}

// add accumulates one repetition's cost.
func (u *usage) add(d usage) {
	u.cpu += d.cpu
	u.alloc += d.alloc
	u.mallocs += d.mallocs
	u.gcs += d.gcs
	u.pauseNs += d.pauseNs
}
