package telemetry

import (
	"math"
	"testing"
	"time"
)

func TestQuantileEmpty(t *testing.T) {
	var h Histogram
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if !math.IsNaN(s.Quantile(q)) {
			t.Fatalf("empty histogram Quantile(%v) = %v, want NaN", q, s.Quantile(q))
		}
		if !math.IsNaN(s.ValueQuantile(q)) {
			t.Fatalf("empty histogram ValueQuantile(%v) = %v, want NaN", q, s.ValueQuantile(q))
		}
	}
	if !math.IsNaN(s.Mean()) || !math.IsNaN(s.ValueMean()) {
		t.Fatal("empty histogram mean must be NaN")
	}
}

func TestQuantileSingleBucket(t *testing.T) {
	// All mass in one bucket: every quantile interpolates within the
	// bucket's [lo, hi) range, so p0..p100 stay inside [lo/1e3, hi/1e3]µs.
	var h Histogram
	for i := 0; i < 100; i++ {
		h.Observe(1500 * time.Nanosecond) // bucket [1024, 2048)ns
	}
	s := h.Snapshot()
	lo, hi := 1024.0/1e3, 2048.0/1e3
	for _, q := range []float64{0, 0.25, 0.5, 0.75, 0.95, 1} {
		v := s.Quantile(q)
		if v < lo || v > hi {
			t.Fatalf("single-bucket Quantile(%v) = %vµs, want within [%v, %v]", q, v, lo, hi)
		}
	}
	if p0, p100 := s.Quantile(0), s.Quantile(1); p0 > p100 {
		t.Fatalf("quantiles not monotone: p0=%v > p100=%v", p0, p100)
	}
}

func TestQuantileExtremes(t *testing.T) {
	// Two well-separated buckets: q=0 must land in the low one, q=1 in
	// the high one, and out-of-range q must clamp rather than panic.
	var h Histogram
	h.Observe(1 * time.Microsecond)   // ~2^10 ns
	h.Observe(1 * time.Millisecond)   // ~2^20 ns
	h.Observe(100 * time.Millisecond) // ~2^27 ns
	s := h.Snapshot()
	if p0 := s.Quantile(0); p0 > 2.048 {
		t.Fatalf("Quantile(0) = %vµs, want inside the lowest hit bucket", p0)
	}
	if p1 := s.Quantile(1); p1 < 1000 {
		t.Fatalf("Quantile(1) = %vµs, want inside the highest hit bucket", p1)
	}
	if s.Quantile(-0.5) != s.Quantile(0) || s.Quantile(2) != s.Quantile(1) {
		t.Fatal("out-of-range q must clamp to [0, 1]")
	}
}

func TestQuantileZeroBucket(t *testing.T) {
	// Exact-zero observations live in bucket 0 with bounds [0, 0]: a
	// histogram of only zeros reads back 0 at every quantile.
	var h Histogram
	for i := 0; i < 10; i++ {
		h.Observe(0)
	}
	s := h.Snapshot()
	for _, q := range []float64{0, 0.5, 1} {
		if v := s.Quantile(q); v != 0 {
			t.Fatalf("all-zero histogram Quantile(%v) = %v, want 0", q, v)
		}
	}
	// Negative durations clamp to zero rather than corrupting a bucket.
	h.Observe(-time.Second)
	if got := h.Snapshot().Buckets[0]; got != 11 {
		t.Fatalf("negative observation landed outside bucket 0: bucket0=%d", got)
	}
}

func TestQuantileOverflowBucket(t *testing.T) {
	// The top bucket (index 64) catches durations with the high bit set;
	// quantiles over it must return finite values, not overflow to +Inf.
	var h Histogram
	h.ObserveValue(math.MaxUint64) // bits.Len64 = 64
	s := h.Snapshot()
	if s.Buckets[histBuckets-1] != 1 {
		t.Fatalf("MaxUint64 not in overflow bucket: %v", s.Buckets)
	}
	for _, q := range []float64{0, 0.5, 1} {
		v := s.ValueQuantile(q)
		if math.IsNaN(v) || math.IsInf(v, 0) || v <= 0 {
			t.Fatalf("overflow-bucket ValueQuantile(%v) = %v, want finite positive", q, v)
		}
	}
}

func TestValueQuantileUnits(t *testing.T) {
	// ValueQuantile must read back in raw units (no ns→µs division):
	// batch sizes of 8 must quantile near 8, not 0.008.
	var h Histogram
	for i := 0; i < 50; i++ {
		h.ObserveValue(8) // bucket [8, 16)
	}
	s := h.Snapshot()
	if p50 := s.ValueQuantile(0.5); p50 < 8 || p50 > 16 {
		t.Fatalf("ValueQuantile(0.5) = %v, want within the [8, 16) bucket", p50)
	}
	if m := s.ValueMean(); m != 8 {
		t.Fatalf("ValueMean = %v, want 8", m)
	}
}
