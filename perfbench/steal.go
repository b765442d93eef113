package main

import (
	"bytes"
	"fmt"
	"os"
	"runtime"
	"strconv"
	"time"
)

// The benchmark's reference host is a few vCPUs of a shared virtual
// machine. When the hypervisor runs other tenants on the physical CPUs,
// it holds back the vCPUs and charges the time to them as steal: queries
// then take up to half as long again in wall time for the same CPU time,
// for minutes at a time. Every timing the benchmark reports is therefore
// net of steal, and the share of the CPU time the process wanted that
// went to steal is reported as host.steal_ratio.

// procStat holds the kernel's CPU times; its first line sums every vCPU.
const procStat = "/proc/stat"

// userHZ is the unit of the times in /proc/stat (USER_HZ, 100 on Linux).
const userHZ = 100

// mark is one reading of wall time, of the process's CPU time (which
// leaves out steal) and of the steal time charged to all vCPUs.
type mark struct {
	wall       time.Time
	cpu, steal time.Duration
}

func markNow() mark {
	cpu, _, err := usage()
	if err != nil {
		fatalf("%v", err)
	}
	steal, err := readSteal()
	if err != nil {
		fatalf("%v", err)
	}
	return mark{wall: time.Now(), cpu: cpu, steal: steal}
}

// readSteal returns the steal time charged to all vCPUs since boot.
func readSteal() (time.Duration, error) {
	b, err := os.ReadFile(procStat)
	if err != nil {
		return 0, err
	}
	line, _, _ := bytes.Cut(b, []byte("\n"))
	f := bytes.Fields(line)
	if len(f) < 9 || string(f[0]) != "cpu" {
		return 0, fmt.Errorf("%s: unexpected first line %q", procStat, line)
	}
	ticks, err := strconv.ParseInt(string(f[8]), 10, 64)
	if err != nil {
		return 0, fmt.Errorf("%s: steal: %w", procStat, err)
	}
	return time.Duration(ticks) * time.Second / userHZ, nil
}

// netFactor returns the share of the wall time from a to b that is left
// once steal is taken out. An idle vCPU accrues no steal, so the steal
// is spread over the vCPUs that wanted to run: on average (CPU time +
// steal) ÷ wall time of them, at least one and at most all. The net
// time is never below the CPU time spread over every vCPU.
func netFactor(a, b mark) float64 {
	wall := b.wall.Sub(a.wall).Seconds()
	steal := (b.steal - a.steal).Seconds()
	if steal <= 0 || wall <= 0 {
		return 1
	}
	cpus := float64(runtime.NumCPU())
	cpu := (b.cpu - a.cpu).Seconds()
	wanting := min(max((cpu+steal)/wall, 1), cpus)
	return max(wall-steal/wanting, cpu/cpus) / wall
}

// netSince returns the wall time since a, net of steal.
func netSince(a mark) time.Duration {
	b := markNow()
	return scale(b.wall.Sub(a.wall), netFactor(a, b))
}

func scale(d time.Duration, f float64) time.Duration {
	return time.Duration(float64(d) * f)
}
