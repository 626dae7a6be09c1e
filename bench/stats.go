package main

import (
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"
)

// ms renders a duration in milliseconds with its full resolution.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// us renders a duration in microseconds with its full resolution.
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// ratio is a/b, and 0 where b is 0 (a layer that did no work).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile returns the q-quantile (nearest rank) of sorted samples.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.999999) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailPermille are the candidates, in thousandths, for "the highest
// percentile that has at least ten samples beyond it".
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// highestPercentile picks, from tailPermille, the highest percentile
// with at least ten samples beyond it among n samples; the median when
// none has.
func highestPercentile(n int) float64 {
	for _, pm := range tailPermille {
		if n*(1000-pm) >= 10*1000 {
			return float64(pm) / 1000
		}
	}
	return 0.50
}

func sortDurations(d []time.Duration) {
	sort.Slice(d, func(i, j int) bool { return d[i] < d[j] })
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if n := len(s); n%2 == 0 {
		return (s[n/2-1] + s[n/2]) / 2
	}
	return s[len(s)/2]
}

// samples is one parsed /metrics body: every single-valued sample keyed
// by its full name including labels.
type samples map[string]float64

// parseMetrics reads a Prometheus-style text exposition.
func parseMetrics(text string) samples {
	out := samples{}
	for _, line := range strings.Split(text, "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			continue
		}
		out[line[:i]] = v
	}
	return out
}

// delta is after[name] - before[name] for one counter.
func delta(before, after samples, name string) float64 { return after[name] - before[name] }

// histMean is the mean observation of a histogram over the interval,
// from its _sum and _count series; labels is "" or `{stage="queue"}`.
func histMean(before, after samples, base, labels string) float64 {
	return ratio(delta(before, after, base+"_sum"+labels), delta(before, after, base+"_count"+labels))
}

// sumSamples adds several processes' samples, for the replicas of a
// cluster.
func sumSamples(all []samples) samples {
	out := samples{}
	for _, s := range all {
		for k, v := range s {
			out[k] += v
		}
	}
	return out
}

// procCPU reads the CPU time a process has used so far: the scheduler's
// exact per-thread run times from schedstat where the kernel keeps
// them, else the tick-sampled user+system time of /proc/<pid>/stat.
func procCPU(pid int) (time.Duration, error) {
	if cpu, ok := schedstatCPU(pid); ok {
		return cpu, nil
	}
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	return parseProcStat(string(data))
}

// schedstatCPU sums the on-CPU nanoseconds of every thread of pid.
func schedstatCPU(pid int) (time.Duration, bool) {
	tasks, err := os.ReadDir(fmt.Sprintf("/proc/%d/task", pid))
	if err != nil || len(tasks) == 0 {
		return 0, false
	}
	var total time.Duration
	for _, t := range tasks {
		tid, err := strconv.Atoi(t.Name())
		if err != nil {
			return 0, false
		}
		cpu, err := threadCPU(pid, tid)
		if err != nil {
			if os.IsNotExist(err) {
				continue // the thread ended between the listing and the read
			}
			return 0, false
		}
		total += cpu
	}
	return total, true
}

// threadCPU reads one thread's on-CPU time from its schedstat.
func threadCPU(pid, tid int) (time.Duration, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/task/%d/schedstat", pid, tid))
	if err != nil {
		return 0, err
	}
	f := strings.Fields(string(data))
	if len(f) < 1 {
		return 0, fmt.Errorf("schedstat of thread %d: empty", tid)
	}
	ns, err := strconv.ParseInt(f[0], 10, 64)
	if err != nil {
		return 0, fmt.Errorf("schedstat of thread %d: %w", tid, err)
	}
	return time.Duration(ns), nil
}

// parseProcStat extracts utime+stime from a /proc/<pid>/stat line. The
// command name may hold spaces, so fields are counted after the closing
// parenthesis; the kernel reports ticks of 1/100 s.
func parseProcStat(line string) (time.Duration, error) {
	i := strings.LastIndexByte(line, ')')
	if i < 0 {
		return 0, fmt.Errorf("proc stat: no command field")
	}
	f := strings.Fields(line[i+1:])
	if len(f) < 13 {
		return 0, fmt.Errorf("proc stat: %d fields", len(f))
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("proc stat: bad cpu fields %q %q", f[11], f[12])
	}
	return time.Duration(utime+stime) * (time.Second / 100), nil
}

// procStatusKB reads one "kB" field (VmHWM, VmRSS) of a process.
func procStatusKB(pid int, field string) (float64, error) {
	data, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	return parseStatusKB(string(data), field)
}

func parseStatusKB(status, field string) (float64, error) {
	for _, line := range strings.Split(status, "\n") {
		if rest, ok := strings.CutPrefix(line, field+":"); ok {
			f := strings.Fields(rest)
			if len(f) == 0 {
				break
			}
			return strconv.ParseFloat(f[0], 64)
		}
	}
	return 0, fmt.Errorf("proc status: no %s", field)
}
