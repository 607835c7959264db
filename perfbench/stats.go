package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync/atomic"
	"time"
)

// latencies collects one operation class's latencies in nanoseconds.
type latencies []int64

// quantile returns the nearest-rank q-quantile in microseconds of sorted
// samples (0 when empty).
func quantileUS(sorted []int64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(q*float64(len(sorted))+0.5) - 1
	i = min(max(i, 0), len(sorted)-1)
	return float64(sorted[i]) / 1e3
}

// p50p99 reports a latency class as its median and 99th percentile over
// every sample, each with the sample count.
func (l latencies) p50p99(prefix string) []metric {
	s := append([]int64(nil), l...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return []metric{
		{name: prefix + "_p50_us", value: quantileUS(s, 0.50), unit: "us", n: len(s)},
		{name: prefix + "_p99_us", value: quantileUS(s, 0.99), unit: "us", n: len(s)},
	}
}

// timeline records one operation class's latencies by the window of the
// measured phase in which each operation completed. Reporting the median
// over windows keeps a burst of interference from other tenants of the
// host, which lands in a few windows, out of the run's figures.
type timeline struct {
	start  time.Time
	window time.Duration
	wins   []latencies
}

// windowFor picks the window length for a measured phase: one second, or
// the whole phase when it is shorter.
func windowFor(d time.Duration) time.Duration { return min(d, time.Second) }

func newTimeline(start time.Time, window time.Duration) *timeline {
	return &timeline{start: start, window: window}
}

func (tl *timeline) add(done time.Time, lat int64) {
	w := int(done.Sub(tl.start) / tl.window)
	for len(tl.wins) <= w {
		tl.wins = append(tl.wins, nil)
	}
	tl.wins[w] = append(tl.wins[w], lat)
}

// mergeTimelines combines the clients' timelines of one class.
func mergeTimelines(tls []*timeline) *timeline {
	out := &timeline{start: tls[0].start, window: tls[0].window}
	for _, tl := range tls {
		for w, l := range tl.wins {
			for len(out.wins) <= w {
				out.wins = append(out.wins, nil)
			}
			out.wins[w] = append(out.wins[w], l...)
		}
	}
	return out
}

// full returns the windows that lie wholly inside a phase of length d.
func (tl *timeline) full(d time.Duration) []latencies {
	n := max(int(d/tl.window), 1)
	wins := make([]latencies, n)
	copy(wins, tl.wins)
	return wins
}

// quantiles reports the class's median and 95th percentile latency: for
// each, the median over the phase's full windows of the window's own
// quantile. The tail is the 95th and not the 99th percentile because on
// the reference host the 99th follows other tenants' load: over five
// seeds its spread reached 0.23 to 0.33 on three workloads, where the
// 95th's stayed at or under 0.16. n is the number of samples.
func (tl *timeline) quantiles(prefix string, d time.Duration) []metric {
	var p50s, p95s []float64
	n := 0
	for _, w := range tl.full(d) {
		s := append(latencies(nil), w...)
		sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
		p50s = append(p50s, quantileUS(s, 0.50))
		p95s = append(p95s, quantileUS(s, 0.95))
		n += len(s)
	}
	return []metric{
		{name: prefix + "_p50_us", value: median(p50s), unit: "us", n: n},
		{name: prefix + "_p95_us", value: median(p95s), unit: "us", n: n},
	}
}

// rate reports completed operations per second: every operation of the
// given classes completed in the measured phase, over the phase's elapsed
// time, so a stall anywhere in the phase lowers it.
func rate(elapsed time.Duration, classes ...*timeline) metric {
	total := 0
	for _, tl := range classes {
		for _, l := range tl.wins {
			total += len(l)
		}
	}
	return metric{name: "ops_per_s", value: ratio(float64(total), elapsed.Seconds()), unit: "1/s", n: total}
}

// windowRate is a diagnostic beside ops_per_s: the median over the phase's
// full windows of each window's own rate. It drops windows hit by host
// noise, and by the program's own stalls too, so it is printed, not gated.
func windowRate(d time.Duration, classes ...*timeline) metric {
	window := classes[0].window
	counts := make([]float64, max(int(d/window), 1))
	total := 0
	for _, tl := range classes {
		for w, l := range tl.full(d) {
			counts[w] += float64(len(l)) / window.Seconds()
			total += len(l)
		}
	}
	return metric{name: "ops_per_s_window_p50", value: median(counts), unit: "1/s", n: total}
}

// storeMax raises m to v if v is larger.
func storeMax(m *atomic.Int64, v int64) {
	for {
		cur := m.Load()
		if v <= cur || m.CompareAndSwap(cur, v) {
			return
		}
	}
}

// median returns the median of xs (0 when empty).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ratio divides, reporting 0 for an empty base.
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// Set-up repeats until setupBudget has passed and at least minSetupReps
// ran, so a set-up of a millisecond or less is timed hundreds of times:
// timed a few times, it is mostly scheduler noise.
const (
	setupBudget  = 2 * time.Second
	minSetupReps = 5
	maxSetupReps = 10_000
)

// setupTimer times repeated set-ups; setup_s is the median of the reps.
type setupTimer struct {
	budget  time.Duration
	minReps int
	start   time.Time
	secs    []float64
}

func newSetupTimer(cfg config) *setupTimer {
	if cfg.small {
		return &setupTimer{minReps: 2}
	}
	return &setupTimer{budget: setupBudget, minReps: minSetupReps}
}

// more reports whether another set-up should run.
func (t *setupTimer) more() bool {
	if t.start.IsZero() {
		t.start = time.Now()
	}
	n := len(t.secs)
	return n < t.minReps || (n < maxSetupReps && time.Since(t.start) < t.budget)
}

func (t *setupTimer) time(fn func() error) error {
	runtime.GC()
	start := time.Now()
	err := fn()
	t.secs = append(t.secs, time.Since(start).Seconds())
	return err
}

func (t *setupTimer) metric() metric {
	return metric{name: "setup_s", value: median(t.secs), unit: "s", n: len(t.secs)}
}

// heapMB reports the live heap after a full collection, in MiB. Callers
// keep the system under test reachable across the call.
func heapMB() metric {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return metric{name: "heap_mb", value: float64(ms.HeapAlloc) / (1 << 20), unit: "MiB"}
}

func baseOf(num, den float64) string { return fmt.Sprintf("%.0f/%.0f", num, den) }
