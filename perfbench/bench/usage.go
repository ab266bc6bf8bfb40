package bench

import (
	"os"
	"runtime"
	"strconv"
	"strings"
	"syscall"
	"time"
)

// Usage is a snapshot (or, after Sub, a difference) of the process's CPU
// time and heap allocation counters.
type Usage struct {
	CPU        time.Duration // user + system
	Allocs     uint64        // heap objects allocated
	AllocBytes uint64        // heap bytes allocated
}

// ReadUsage snapshots the process counters. It stops the world to read
// the allocation counters; CPUTime alone does not.
func ReadUsage() Usage {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return Usage{CPU: CPUTime(), Allocs: ms.Mallocs, AllocBytes: ms.TotalAlloc}
}

// CPUTime is the process's user plus system CPU time so far.
func CPUTime() time.Duration {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru) // cannot fail for RUSAGE_SELF
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// Sub returns u - v.
func (u Usage) Sub(v Usage) Usage {
	return Usage{CPU: u.CPU - v.CPU, Allocs: u.Allocs - v.Allocs, AllocBytes: u.AllocBytes - v.AllocBytes}
}

// MaxRSSMiB is the process's peak resident set size in MiB.
func MaxRSSMiB() float64 {
	var ru syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// Steal is the time the hypervisor has so far kept this machine's
// virtual CPUs from running while they had work, summed over CPUs: the
// steal column of /proc/stat. It moves in clock ticks of 10 ms and is
// zero where the file cannot be read. On a shared host it is the other
// tenants' load, not the program's; process CPU time (CPUTime) already
// leaves it out.
func Steal() time.Duration {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0
	}
	return parseSteal(string(b))
}

// parseSteal reads the steal column from the text of /proc/stat.
func parseSteal(stat string) time.Duration {
	line, _, _ := strings.Cut(stat, "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0
	}
	n, err := strconv.ParseInt(f[8], 10, 64)
	if err != nil {
		return 0
	}
	return time.Duration(n) * 10 * time.Millisecond // USER_HZ is 100
}

// Stopwatch times one caller's work without the steal counted while it
// ran. The steal is capped at the wall time: a caller that runs on one
// CPU at a time cannot lose more than it waited.
type Stopwatch struct {
	t0 time.Time
	s0 time.Duration
}

// StartStopwatch starts a Stopwatch now.
func StartStopwatch() Stopwatch { return Stopwatch{s0: Steal(), t0: time.Now()} }

// Run returns the wall time since the start less the steal since then.
func (w Stopwatch) Run() time.Duration {
	wall := time.Since(w.t0)
	return wall - min(Steal()-w.s0, wall)
}
