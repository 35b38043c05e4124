package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// or 0 when xs is empty. xs is not modified.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// intMedian is median over integer counts.
func intMedian(xs []int) float64 {
	fs := make([]float64, len(xs))
	for i, x := range xs {
		fs[i] = float64(x)
	}
	return median(fs)
}

// ratio is a/b, or 0 when b is 0, so an empty phase reports 0, not NaN.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

func ms(ns int64) float64 { return float64(ns) / 1e6 }
func us(ns int64) float64 { return float64(ns) / 1e3 }

// usage is the process's user plus system CPU time and its minor page
// faults so far.
func usage() (time.Duration, int64) {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0, 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano()), ru.Minflt
}

// cost is what a measured phase consumed.
type cost struct {
	alloc  uint64        // heap bytes allocated (runtime.MemStats.TotalAlloc)
	cpu    time.Duration // process CPU time, user plus system
	faults int64         // minor page faults: heap the runtime gave back and touched again
}

// meter starts measuring a phase; the returned function ends it. It
// collects garbage first, so the phase does not pay for set-up's garbage.
func meter() func() cost {
	var m0 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	c0, f0 := usage()
	return func() cost {
		var m1 runtime.MemStats
		runtime.ReadMemStats(&m1)
		c1, f1 := usage()
		return cost{alloc: m1.TotalAlloc - m0.TotalAlloc, cpu: c1 - c0, faults: f1 - f0}
	}
}

// windows is the number of equal windows a measured phase is cut into.
// Latency percentiles are computed per window and the median over windows
// is reported: a burst of CPU stolen by other tenants of the host then
// spoils one window, not the run's figure. Throughput is taken over the
// whole phase.
const windows = 6

// sample is one timed observation: when its statement started (or was due)
// and its value.
type sample struct {
	at time.Time
	v  float64
}

// byWindow splits samples into the phase's windows by start time; samples
// past the last window's end count in the last window.
func byWindow(xs []sample, start time.Time, phase time.Duration) [][]float64 {
	out := make([][]float64, windows)
	w := phase / windows
	for _, x := range xs {
		i := 0
		if w > 0 {
			i = min(int(x.at.Sub(start)/w), windows-1)
		}
		out[max(i, 0)] = append(out[max(i, 0)], x.v)
	}
	return out
}

// windowedPercentile is the median over windows of each window's
// nearest-rank p-th percentile; empty windows are skipped.
func windowedPercentile(xs []sample, start time.Time, phase time.Duration, p float64) float64 {
	var per []float64
	for _, w := range byWindow(xs, start, phase) {
		if len(w) > 0 {
			per = append(per, percentile(w, p))
		}
	}
	return median(per)
}
