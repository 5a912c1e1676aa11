package main

import (
	"math"
	"runtime"
	rtmetrics "runtime/metrics"
	"sort"
	"syscall"
	"time"
)

// quantile returns the q-quantile of xs by the nearest-rank rule, so the
// result is always one of the samples. xs is not modified.
func quantile(xs []int64, q float64) int64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]int64(nil), xs...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[min(max(i, 0), len(s)-1)]
}

// cpuTime returns the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// mallocs returns the number of heap objects allocated so far.
func mallocs() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.Mallocs
}

// liveHeapMiB forces a collection and returns the live heap in MiB.
func liveHeapMiB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / (1 << 20)
}

// Go runtime metrics the traced run reads.
const (
	rtGCCycles     = "/gc/cycles/total:gc-cycles"
	rtGCPauses     = "/sched/pauses/total/gc:seconds"
	rtSchedLatency = "/sched/latencies:seconds"
)

// rtSample is a snapshot of the runtime metrics above.
type rtSample struct {
	gcCycles uint64
	pauses   *rtmetrics.Float64Histogram
	sched    *rtmetrics.Float64Histogram
}

func readRuntime() rtSample {
	s := []rtmetrics.Sample{{Name: rtGCCycles}, {Name: rtGCPauses}, {Name: rtSchedLatency}}
	rtmetrics.Read(s)
	var out rtSample
	if s[0].Value.Kind() == rtmetrics.KindUint64 {
		out.gcCycles = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == rtmetrics.KindFloat64Histogram {
		out.pauses = s[1].Value.Float64Histogram()
	}
	if s[2].Value.Kind() == rtmetrics.KindFloat64Histogram {
		out.sched = s[2].Value.Float64Histogram()
	}
	return out
}

// histQuantile returns the q-quantile, in seconds, of the observations a
// runtime histogram gained between two snapshots, interpolating linearly
// by rank inside the bucket that holds it (the buckets are a quarter of
// an octave wide, so the bucket edge alone would read the same on most
// runs).
func histQuantile(before, after *rtmetrics.Float64Histogram, q float64) float64 {
	if before == nil || after == nil || len(before.Counts) != len(after.Counts) {
		return 0
	}
	delta := make([]uint64, len(after.Counts))
	var total uint64
	for i := range delta {
		delta[i] = after.Counts[i] - before.Counts[i]
		total += delta[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var seen float64
	for i, c := range delta {
		if c == 0 {
			continue
		}
		if seen+float64(c) >= rank {
			lo, hi := after.Buckets[i], after.Buckets[i+1]
			if math.IsInf(lo, -1) {
				lo = 0
			}
			if math.IsInf(hi, 1) {
				return lo
			}
			return lo + (hi-lo)*(rank-seen)/float64(c)
		}
		seen += float64(c)
	}
	return 0
}
