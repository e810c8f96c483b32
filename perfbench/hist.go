package main

import (
	"math"
	"sync/atomic"
	"time"
)

// hist is a lock-free log-linear histogram of non-negative values
// (nanoseconds, or plain counts): exact below 128, and 128 linear
// sub-buckets per power of two above, so a quantile is within 0.8% of
// the sample it stands for. Quantiles interpolate inside a bucket, so
// two runs of slightly different speed read differently.
type hist struct {
	n       atomic.Uint64
	sum     atomic.Uint64
	buckets [histBuckets]atomic.Uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	histMaxExp  = 42 // values up to ~73 minutes in ns
	histBuckets = histSub + (histMaxExp-histSubBits+1)*histSub
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := 63
	for v>>uint(e) == 0 {
		e--
	}
	if e > histMaxExp {
		return histBuckets - 1
	}
	sub := int(v>>uint(e-histSubBits)) & (histSub - 1)
	return histSub + (e-histSubBits)*histSub + sub
}

// histBounds returns bucket i's lower bound and width.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := (i-histSub)/histSub + histSubBits
	sub := (i - histSub) % histSub
	w := math.Ldexp(1, e-histSubBits)
	return float64(histSub+sub) * w, w
}

func (h *hist) add(v int64) {
	if v < 0 {
		v = 0
	}
	h.buckets[histIndex(uint64(v))].Add(1)
	h.sum.Add(uint64(v))
	h.n.Add(1)
}

// merge adds o's samples to h.
func (h *hist) merge(o *hist) {
	for i := range o.buckets {
		if c := o.buckets[i].Load(); c != 0 {
			h.buckets[i].Add(c)
		}
	}
	h.n.Add(o.n.Load())
	h.sum.Add(o.sum.Load())
}

func (h *hist) since(t0 time.Time) { h.add(int64(time.Since(t0))) }

func (h *hist) count() uint64 { return h.n.Load() }

// quantile returns the q-quantile of the recorded values, treating
// `beyond` extra samples as larger than any recorded one (failed
// operations count as missing every latency limit). It returns +Inf
// when the quantile falls among those, and 0 for an empty histogram.
func (h *hist) quantile(q float64, beyond uint64) float64 {
	n := h.n.Load()
	total := n + beyond
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	if rank >= float64(n) {
		if beyond > 0 {
			return math.Inf(1)
		}
		rank = float64(n) - 0.5
	}
	var cum float64
	for i := range h.buckets {
		c := float64(h.buckets[i].Load())
		if c == 0 {
			continue
		}
		if cum+c > rank {
			lo, w := histBounds(i)
			return lo + w*(rank-cum)/c
		}
		cum += c
	}
	return 0
}
