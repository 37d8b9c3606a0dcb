package main

import (
	"math"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// median returns the median of xs (0 for none) without reordering xs.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile is the nearest-rank q-th percentile of sorted samples.
func percentile(sorted []float64, q float64) float64 {
	rank := int(math.Ceil(q / 100 * float64(len(sorted))))
	if rank < 1 {
		rank = 1
	}
	return sorted[rank-1]
}

// tailPercentile picks the percentile latency_tail_ms reports for n
// samples: the highest whole percentile up to 90 with at least ten
// samples beyond it. Below forty samples there is no tail to speak of,
// and the median (50) is reported instead.
func tailPercentile(n int) float64 {
	if n < 40 {
		return 50
	}
	for q := 90; q > 50; q-- {
		rank := int(math.Ceil(float64(q) / 100 * float64(n)))
		if n-rank >= 10 {
			return float64(q)
		}
	}
	return 50
}

// latencySummary is one run's latency distribution for one operation.
type latencySummary struct {
	Samples int
	Median  float64 // ms
	TailQ   float64 // the percentile Tail is
	Tail    float64 // ms
	P99     float64 // ms, reference only
	Max     float64 // ms, reference only
}

// summarize reduces latency samples (ms) to the reported figures.
func summarize(samplesMS []float64) latencySummary {
	s := sortedCopy(samplesMS)
	if len(s) == 0 {
		return latencySummary{}
	}
	q := tailPercentile(len(s))
	return latencySummary{
		Samples: len(s),
		Median:  median(s),
		TailQ:   q,
		Tail:    percentile(s, q),
		P99:     percentile(s, 99),
		Max:     s[len(s)-1],
	}
}

func processCPU() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

func totalAlloc() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

// peakRSSMB is the process's peak resident set size in MiB.
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}
