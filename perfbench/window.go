package main

import (
	"sort"
	"sync/atomic"
	"time"
)

// A measured phase is cut into windows, and each rate and latency figure
// is the median of its per-window values: a burst of load from outside
// the process then spoils a window or two, not the run's figures.

// window is one slice of a measured phase.
type window struct {
	dur   time.Duration
	ops   int
	cpu   time.Duration
	alloc uint64
	lat   []float64 // ms, of the operations that completed in it
}

// figures are a phase's reported figures.
type figures struct {
	throughput float64 // ops/s
	cpuPerOp   float64 // ms
	allocPerOp float64 // KB
	lat        latencySummary
}

// reduce takes the median of each figure over the windows. Windows with
// no completed operation are skipped.
func reduce(ws []window) figures {
	var thr, cpu, alloc, med, tail, all []float64
	tailQ := 90.0
	for _, w := range ws {
		if w.ops == 0 || len(w.lat) == 0 {
			continue
		}
		thr = append(thr, float64(w.ops)/w.dur.Seconds())
		cpu = append(cpu, ms(w.cpu)/float64(w.ops))
		alloc = append(alloc, float64(w.alloc)/1024/float64(w.ops))
		s := summarize(w.lat)
		med, tail = append(med, s.Median), append(tail, s.Tail)
		tailQ = min(tailQ, s.TailQ)
		all = append(all, w.lat...)
	}
	whole := summarize(all)
	return figures{
		throughput: median(thr), cpuPerOp: median(cpu), allocPerOp: median(alloc),
		lat: latencySummary{Samples: whole.Samples, Median: median(med), TailQ: tailQ,
			Tail: median(tail), P99: whole.P99, Max: whole.Max},
	}
}

// anotherRound reports whether a phase of length d that has run for
// elapsed over rounds whole rounds starts one more: only while at least
// half a round's time is left, so a run ends near d and every run of a
// workload on one machine does the same number of rounds.
func anotherRound(d, elapsed time.Duration, rounds int) bool {
	return d-elapsed >= elapsed/time.Duration(2*rounds)
}

// mark is the process's state at one window boundary.
type mark struct {
	at    time.Duration // since the phase started
	ops   int64
	cpu   time.Duration
	alloc uint64
}

func markNow(start time.Time, ops int64) mark {
	return mark{at: time.Since(start), ops: ops, cpu: processCPU(), alloc: totalAlloc()}
}

// windowClock marks a window boundary every period while clients count
// their completed operations in ops.
type windowClock struct {
	ops   atomic.Int64
	start time.Time
	marks []mark
	stop  chan struct{}
	done  chan struct{}
}

func startWindows(period time.Duration) *windowClock {
	w := &windowClock{start: time.Now(), stop: make(chan struct{}), done: make(chan struct{})}
	w.marks = append(w.marks, markNow(w.start, 0))
	go func() {
		defer close(w.done)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				w.marks = append(w.marks, markNow(w.start, w.ops.Load()))
			case <-w.stop:
				return
			}
		}
	}()
	return w
}

// finish stops the clock and cuts the phase into windows. at[i] is when
// operation i completed (since the phase started) and lat[i] its
// latency. The tail after the last full period is dropped.
func (w *windowClock) finish(at []time.Duration, lat []float64) []window {
	close(w.stop)
	<-w.done
	ws := make([]window, len(w.marks)-1)
	for i := range ws {
		a, b := w.marks[i], w.marks[i+1]
		ws[i] = window{dur: b.at - a.at, ops: int(b.ops - a.ops), cpu: b.cpu - a.cpu, alloc: b.alloc - a.alloc}
	}
	for i, t := range at {
		k := sort.Search(len(ws), func(k int) bool { return w.marks[k+1].at >= t })
		if k < len(ws) {
			ws[k].lat = append(ws[k].lat, lat[i])
		}
	}
	return ws
}
