package main

import (
	"math"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// minBeyond is the tail rule: a tail percentile is reported only where
// at least this many samples lie beyond it.
const minBeyond = 10

// median returns the middle of xs (the mean of the two middle values
// for an even count), or 0 for no samples. xs is not modified.
func median(xs []float64) float64 {
	n := len(xs)
	if n == 0 {
		return 0
	}
	s := sortedCopy(xs)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the highest-ranked sample that still has minBeyond
// samples above it, and the percentile that sample sits at
// (100·(n−minBeyond)/n). ok is false when there are too few samples.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n <= minBeyond {
		return 0, 0, false
	}
	s := sortedCopy(xs)
	i := n - minBeyond - 1
	return s[i], 100 * float64(i+1) / float64(n), true
}

// tailAt returns the nearest-rank value at percentile pct, lowered to
// the tail rule's maximum when fewer than minBeyond samples would lie
// beyond pct, the percentile actually used, and how many samples lie
// beyond the value's rank.
func tailAt(xs []float64, pct float64) (v, used float64, beyond int) {
	n := len(xs)
	if n == 0 {
		return 0, 0, 0
	}
	if _, maxPct, ok := tail(xs); !ok {
		return maxOf(xs), 100, 0
	} else if maxPct < pct {
		pct = maxPct
	}
	s := sortedCopy(xs)
	i := max(0, min(int(math.Ceil(pct/100*float64(n)))-1, n-1))
	return s[i], pct, n - 1 - i
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

func maxOf(xs []float64) float64 {
	m := 0.0
	for i, x := range xs {
		if i == 0 || x > m {
			m = x
		}
	}
	return m
}

// ratio is num ÷ den, 0 when the base is empty. Every ratio the
// benchmark prints goes through here so a missing base never prints
// NaN or Inf.
func ratio(num, den float64) float64 {
	if den == 0 || math.IsNaN(num) {
		return 0
	}
	return num / den
}

func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// heapSampler tracks the peak of the Go heap (bytes in live and
// not-yet-swept heap objects) by polling runtime/metrics, which does
// not stop the world, from one goroutine. Only that goroutine touches
// peak until Stop has waited for it.
type heapSampler struct {
	peak uint64
	buf  []metrics.Sample
	stop chan struct{}
	wg   sync.WaitGroup
}

func startHeapSampler(every time.Duration) *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), buf: []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}}
	h.sample()
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		t := time.NewTicker(every)
		defer t.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-t.C:
				h.sample()
			}
		}
	}()
	return h
}

func (h *heapSampler) sample() {
	metrics.Read(h.buf)
	h.peak = max(h.peak, h.buf[0].Value.Uint64())
}

// Stop ends sampling, takes a last sample, and returns the peak bytes.
func (h *heapSampler) Stop() uint64 {
	close(h.stop)
	h.wg.Wait()
	h.sample()
	return h.peak
}
