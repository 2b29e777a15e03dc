package main

import (
	"os"
	"strconv"
	"strings"
	"time"
)

// cpuTimes is one reading of the machine-wide CPU time counters of
// /proc/stat: the time the hypervisor ran other guests on this machine's
// virtual CPUs ("steal"), and the time over all states.
type cpuTimes struct {
	steal, total uint64
}

// readCPUTimes reads the aggregate "cpu" line of /proc/stat. Where the file
// is missing or has no steal column, it returns zeros, and stealShare then
// reports no steal.
func readCPUTimes() cpuTimes {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return cpuTimes{}
	}
	line, _, _ := strings.Cut(string(b), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return cpuTimes{}
	}
	var t cpuTimes
	// user nice system idle iowait irq softirq steal; guest time is
	// already counted in user.
	for i, s := range f[1:9] {
		v, err := strconv.ParseUint(s, 10, 64)
		if err != nil {
			return cpuTimes{}
		}
		t.total += v
		if i == 7 {
			t.steal = v
		}
	}
	return t
}

// stealShare is the share of the CPU time between two readings that the
// hypervisor gave to other guests.
func stealShare(a, b cpuTimes) float64 {
	if b.total <= a.total || b.steal < a.steal {
		return 0
	}
	return float64(b.steal-a.steal) / float64(b.total-a.total)
}

// stealClock measures wall time and the steal share over it. The
// benchmark runs on virtual machines that share their host, and how much
// CPU time the host takes away changes from minute to minute. Timing
// figures are therefore reported for the time the host actually ran the
// machine: a wall time d over which the steal share was s counts as
// d·(1−s).
type stealClock struct {
	t0 time.Time
	c0 cpuTimes
}

func startStealClock() stealClock { return stealClock{time.Now(), readCPUTimes()} }

// stop returns the wall time since the clock started and the steal share
// over it.
func (c stealClock) stop() (time.Duration, float64) {
	d := time.Since(c.t0)
	return d, stealShare(c.c0, readCPUTimes())
}
